/* Sequentially consistent atomics on one element of an OCaml [int array].

   OCaml 5.1 offers atomics only on [Atomic.t] blocks, so a record arena
   built as one flat array needs these three.  Each is the element-wise
   counterpart of [Atomic.get], [Atomic.set] and [Atomic.compare_and_set],
   with the same __ATOMIC_SEQ_CST ordering.  The elements are immediate
   integers, so no write barrier is needed and nothing allocates.  The
   index is not checked here: the OCaml side checks it before the call. */

#include <caml/mlvalues.h>

value arena_atomic_load(value arr, intnat i)
{
  return __atomic_load_n(Op_val(arr) + i, __ATOMIC_SEQ_CST);
}

value arena_atomic_load_byte(value arr, value i)
{
  return arena_atomic_load(arr, Long_val(i));
}

value arena_atomic_store(value arr, intnat i, value v)
{
  __atomic_store_n(Op_val(arr) + i, v, __ATOMIC_SEQ_CST);
  return Val_unit;
}

value arena_atomic_store_byte(value arr, value i, value v)
{
  return arena_atomic_store(arr, Long_val(i), v);
}

value arena_atomic_cas(value arr, intnat i, value expect, value v)
{
  return Val_bool(__atomic_compare_exchange_n(
      Op_val(arr) + i, &expect, v, 0, __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST));
}

value arena_atomic_cas_byte(value arr, value i, value expect, value v)
{
  return arena_atomic_cas(arr, Long_val(i), expect, v);
}

type 'a t = { v : 'a Atomic.t; line : int }

let make x = { v = Atomic.make x; line = Addr.reserve_lines 1 }
let line t = t.line

let[@inline] get ctx t =
  Ctx.access ctx ~line:t.line Ctx.Read;
  Atomic.get t.v

let[@inline] set ctx t x =
  Ctx.access ctx ~line:t.line Ctx.Write;
  Atomic.set t.v x

let[@inline] cas ctx t ~expect x =
  Ctx.access ctx ~line:t.line Ctx.Cas;
  Atomic.compare_and_set t.v expect x

let[@inline] faa ctx t d =
  Ctx.access ctx ~line:t.line Ctx.Cas;
  Atomic.fetch_and_add t.v d

let peek t = Atomic.get t.v
let poke t x = Atomic.set t.v x

/* Clocks for the benchmark's timers and spans.  Unix.gettimeofday only
   resolves microseconds, too coarse for one structure operation.

   pb_cpu_ns reads the calling thread's CPU time.  On a shared host a
   spinning domain loses several percent of wall time, varying from minute
   to minute, to being descheduled; its CPU time excludes those gaps, so
   throughput and host-cost figures taken from it repeat across runs. */
#include <time.h>
#include <caml/mlvalues.h>

static intnat read_clock(clockid_t id)
{
  struct timespec ts;
  clock_gettime(id, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

intnat pb_now_ns(value unit)
{
  (void)unit;
  return read_clock(CLOCK_MONOTONIC);
}

value pb_now_ns_byte(value unit)
{
  return Val_long(pb_now_ns(unit));
}

intnat pb_cpu_ns(value unit)
{
  (void)unit;
  return read_clock(CLOCK_THREAD_CPUTIME_ID);
}

value pb_cpu_ns_byte(value unit)
{
  return Val_long(pb_cpu_ns(unit));
}

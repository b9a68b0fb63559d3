/* CPU pinning for the benchmark's client and the daemons it forks. */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>

/* Restrict the calling thread (and the processes it spawns from now on)
   to the CPUs in [cpus], an OCaml int list.  Returns false when the
   kernel refuses the mask. */
value perfbench_set_affinity(value cpus)
{
  CAMLparam1(cpus);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (value l = cpus; l != Val_emptylist; l = Field(l, 1))
    CPU_SET(Int_val(Field(l, 0)), &set);
  CAMLreturn(Val_bool(sched_setaffinity(0, sizeof set, &set) == 0));
}

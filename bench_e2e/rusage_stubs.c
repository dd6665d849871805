/* Peak resident set size of this process, from getrusage(2). */
#include <sys/resource.h>
#include <caml/mlvalues.h>

value bench_e2e_max_rss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return Val_long(-1);
  return Val_long(ru.ru_maxrss);
}

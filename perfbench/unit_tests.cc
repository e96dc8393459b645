// Hand-worked cases for the benchmark's own arithmetic (stats.h). Run with
//   python3 perfbench/run.py --unit-tests
// Exit code 0 when every case holds; each failing case is printed.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::printf("FAIL: %s\n", what);
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

void TestMedian() {
  using perfbench::Median;
  Expect(Near(Median({3, 1, 2}), 2.0), "median of an odd count is the middle");
  Expect(Near(Median({4, 1, 3, 2}), 2.5),
         "median of an even count is the mean of the two middle values");
  Expect(Near(Median({7}), 7.0), "median of one value is that value");
  Expect(std::isnan(Median({})), "median of nothing is NaN");
  // (1 + 2 + 6) / 3 = 3: unlike the median (2), the mean follows the 6.
  Expect(Near(perfbench::Mean({1, 2, 6}), 3.0), "mean of 1, 2, 6 is 3");
  Expect(Near(perfbench::Mean({}), 0.0), "mean of nothing is 0");
}

void TestTail() {
  using perfbench::HighestTail;
  std::vector<double> hundred, thousand;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  for (int i = 1000; i >= 1; --i) thousand.push_back(i);
  // 100 samples: p99 = 99 has 1 beyond, p95 = 95 has 5, p90 = 90 has 10.
  perfbench::TailPercentile t = HighestTail(hundred);
  Expect(t.valid && Near(t.percentile, 90.0) && Near(t.value, 90.0) &&
             t.beyond == 10 && t.samples == 100,
         "100 samples report p90 with 10 beyond");
  // 1000 samples: p99.9 = 999 has 1 beyond, p99 = 990 has 10.
  t = HighestTail(thousand);
  Expect(t.valid && Near(t.percentile, 99.0) && Near(t.value, 990.0) &&
             t.beyond == 10,
         "1000 samples report p99 with 10 beyond");
  // 39 samples: p90 = the 36th has 3 beyond; nothing qualifies.
  std::vector<double> few(hundred.begin(), hundred.begin() + 39);
  Expect(!HighestTail(few).valid, "39 samples report no tail percentile");
  // Samples equal to the percentile are not beyond it: with 80 ones and 20
  // twos every candidate percentile is 2 and nothing lies beyond it.
  std::vector<double> ties(80, 1.0);
  ties.insert(ties.end(), 20, 2.0);
  Expect(!HighestTail(ties).valid, "ties at the percentile are not beyond it");
  // Only the 50 largest of 1..1000 kept (951..1000): p99 = 990 is the 40th
  // of them (index 49 - (1000 - 990) = 39) and has 10 beyond, as above.
  std::vector<double> top50(thousand.begin(), thousand.begin() + 50);
  t = perfbench::HighestTailOfTop(top50, 1000);
  Expect(t.valid && Near(t.percentile, 99.0) && Near(t.value, 990.0) &&
             t.beyond == 10 && t.samples == 1000,
         "the 50 largest of 1000 samples give the same p99");
  // With the 5 largest kept, p99's rank lies below them: no tail.
  std::vector<double> top5(thousand.begin(), thousand.begin() + 5);
  Expect(!perfbench::HighestTailOfTop(top5, 1000).valid,
         "a percentile whose rank was not kept is not reported");
}

void TestOverlap() {
  perfbench::Overlap o;
  // selected {0,1,4}, gold {0,3,4}: overlap 2, P = R = 2/3, F1 = 2/3.
  o.Add(std::vector<int>{1, 1, 0, 0, 1}, std::vector<int>{1, 0, 0, 1, 1});
  Expect(o.selected == 3 && o.gold == 3 && o.both == 2 && o.tokens == 5,
         "overlap counts of one sequence");
  Expect(Near(o.F1(), 2.0 / 3.0) && Near(o.SelectedShare(), 0.6),
         "F1 2/3 and selected share 3/5");
  // A second sequence with nothing selected: P = 2/3, R = 2/5,
  // F1 = 2 * (2/3) * (2/5) / (2/3 + 2/5) = 0.5.
  o.Add(std::vector<int>{0, 0, 0}, std::vector<int>{1, 1, 0});
  Expect(Near(o.Precision(), 2.0 / 3.0) && Near(o.Recall(), 0.4) &&
             Near(o.F1(), 0.5),
         "pooled F1 over two sequences is 0.5");
  perfbench::Overlap none;
  none.Add(std::vector<int>{0, 0}, std::vector<int>{0, 1});
  Expect(Near(none.F1(), 0.0), "nothing selected gives F1 0");
}

}  // namespace

int main() {
  TestMedian();
  TestTail();
  TestOverlap();
  std::printf("%s: %d failure(s)\n", failures ? "FAIL" : "ok", failures);
  return failures ? 1 : 0;
}

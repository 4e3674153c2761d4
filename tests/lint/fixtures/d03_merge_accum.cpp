// brblint self-test fixture: BRB-D03 must fire on floating-point
// accumulation inside a merge-named function, but not inside the
// sanctioned deterministic-reduction helpers or plain per-run code.
// expect: BRB-D03=1
#include <vector>

namespace fixture {

double merge_shards(const std::vector<double>& shard_means) {
  double total = 0.0;
  for (const double mean : shard_means) total += mean;  // worker-order hazard
  return total;
}

// Sanctioned helper name: must NOT fire.
class Summary {
 public:
  void add(double x);

 private:
  double total_ = 0.0;
};

void Summary::add(double x) { total_ += x; }

// Not a merge path (per-run accumulation): must NOT fire.
double run_mean(const std::vector<double>& samples) {
  double total = 0.0;
  for (const double s : samples) total += s;
  return samples.empty() ? 0.0 : total / static_cast<double>(samples.size());
}

}  // namespace fixture

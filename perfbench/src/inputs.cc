#include "inputs.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <numeric>
#include <vector>

#include "data/csrankings.h"
#include "data/dataset.h"
#include "data/nba.h"
#include "data/synthetic.h"
#include "util/string_util.h"

namespace perfbench {

using rankhow::Dataset;
using rankhow::Result;
using rankhow::Status;

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

void AppendDouble(double v, std::string* out) {
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

// Writes header + rows (in `order`) of the first `m` columns of `data`.
Status WriteTable(const std::string& path, const std::string& id_header,
                  const std::vector<std::string>& ids, const Dataset& data,
                  int m, const std::vector<int>& order) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::string buf = id_header;
  for (int a = 0; a < m; ++a) buf += "," + data.attribute_name(a);
  buf += "\n";
  bool ok = true;
  for (int t : order) {
    buf += ids[t];
    for (int a = 0; a < m; ++a) {
      buf += ',';
      AppendDouble(data.value(t, a), &buf);
    }
    buf += '\n';
    if (buf.size() > (1u << 20)) {
      ok = ok && std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
      buf.clear();
    }
  }
  ok = ok && std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return Status::IoError("short write to " + path);
  return Status::OK();
}

// Row order: descending score (stable on ties, so the order is a pure
// function of the generated data).
std::vector<int> OrderByScore(const std::vector<double>& score) {
  std::vector<int> order(score.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return score[a] > score[b]; });
  return order;
}

RelationFile MakeFile(const std::string& path, const std::string& id, int k,
                      const Dataset& data, int m) {
  RelationFile file;
  file.path = path;
  file.spec.id_column = id;
  file.spec.k = k;
  file.spec.normalize = true;
  for (int a = 0; a < m; ++a) file.attributes.push_back(data.attribute_name(a));
  return file;
}

// Up to `max_pairs` (ranked A, B) pairs where A beats B by `margin` on every
// attribute after min-max normalization; B is searched from the bottom.
std::vector<std::pair<std::string, std::string>> DominancePairs(
    const Dataset& data, int m, const std::vector<int>& order,
    const std::vector<std::string>& ids, int k, double margin,
    int max_pairs) {
  std::vector<double> lo(m), span(m);
  for (int a = 0; a < m; ++a) {
    const auto& col = data.column(a);
    const auto [mn, mx] = std::minmax_element(col.begin(), col.end());
    lo[a] = *mn;
    span[a] = *mx - *mn;
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < k && static_cast<int>(pairs.size()) < max_pairs; ++i) {
    const int above = order[i];
    for (int j = static_cast<int>(order.size()) - 1; j >= k; --j) {
      const int below = order[j];
      bool dominates = true;
      for (int a = 0; a < m && dominates; ++a) {
        dominates = span[a] > 0 && (data.value(above, a) -
                                    data.value(below, a)) / span[a] >= margin;
      }
      if (dominates) {
        pairs.emplace_back(ids[above], ids[below]);
        break;
      }
    }
  }
  return pairs;
}

constexpr double kOrderMargin = 0.05;
constexpr int kMaxOrderPairs = 3;

}  // namespace

Result<RelationFile> WriteNbaRelation(const std::string& path, int n, int m,
                                      int k, uint64_t seed) {
  rankhow::NbaSpec spec;
  spec.num_tuples = n;
  spec.seed = seed;
  rankhow::NbaData nba = rankhow::GenerateNba(spec);
  const std::vector<int> order = OrderByScore(nba.mp_times_per);
  RH_RETURN_NOT_OK(WriteTable(path, "PLR", nba.labels, nba.table, m, order));
  RelationFile file = MakeFile(path, "PLR", k, nba.table, m);
  file.order_pairs = DominancePairs(nba.table, m, order, nba.labels, k,
                                    kOrderMargin, kMaxOrderPairs);
  return file;
}

Result<RelationFile> WriteCsRankingsRelation(const std::string& path, int n,
                                             int k, uint64_t seed) {
  rankhow::CsRankingsSpec spec;
  spec.num_institutions = n;
  spec.seed = seed;
  rankhow::CsRankingsData cs = rankhow::GenerateCsRankings(spec);
  std::vector<std::string> ids;
  for (int t = 0; t < cs.table.num_tuples(); ++t) {
    ids.push_back(rankhow::StrFormat("I%04d", t));
  }
  const int m = cs.table.num_attributes();
  const std::vector<int> order = OrderByScore(cs.default_scores);
  RH_RETURN_NOT_OK(WriteTable(path, "INST", ids, cs.table, m, order));
  RelationFile file = MakeFile(path, "INST", k, cs.table, m);
  file.order_pairs = DominancePairs(cs.table, m, order, ids, k, kOrderMargin,
                                    kMaxOrderPairs);
  return file;
}

Result<RelationFile> WriteSyntheticRelation(const std::string& path, int n,
                                            int m, int k, uint64_t seed) {
  rankhow::SyntheticSpec spec;
  spec.num_tuples = n;
  spec.num_attributes = m;
  spec.distribution = rankhow::SyntheticDistribution::kUniform;
  spec.seed = seed;
  Dataset data = rankhow::GenerateSynthetic(spec);
  std::vector<double> score = rankhow::PowerSumScores(data, 3);
  // Top-k by sum(A^3) first, in order; the rest in generation order.
  std::vector<int> top(n);
  std::iota(top.begin(), top.end(), 0);
  std::partial_sort(top.begin(), top.begin() + k, top.end(), [&](int a, int b) {
    return score[a] > score[b] || (score[a] == score[b] && a < b);
  });
  std::vector<char> is_top(n, 0);
  std::vector<int> order(top.begin(), top.begin() + k);
  for (int t : order) is_top[t] = 1;
  for (int t = 0; t < n; ++t) {
    if (!is_top[t]) order.push_back(t);
  }
  std::vector<std::string> ids(n);
  for (int t = 0; t < n; ++t) ids[t] = std::to_string(t);
  RH_RETURN_NOT_OK(WriteTable(path, "ID", ids, data, m, order));
  return MakeFile(path, "ID", k, data, m);
}

}  // namespace perfbench

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded input generation for the benchmark workloads. Everything here is
// the benchmark's own work: it writes CSV files into the run directory, and
// the program under test only ever sees those files (through ReadCsvFile +
// AssembleCliProblem, the rankhow_cli path). None of it is timed.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "app/cli_driver.h"
#include "util/status.h"

namespace perfbench {

// One relation on disk plus the spec that turns it into an OPT instance.
// Rows are written in given-ranking order, so spec.k makes the first k rows
// the given ranking (CliDataSpec's "row order IS the ranking" mode).
struct RelationFile {
  std::string path;
  rankhow::CliDataSpec spec;
  // Ranking attribute names, in column order.
  std::vector<std::string> attributes;
  // Label pairs (A, B) with A ranked and A above B by at least 0.05 on every
  // min-max normalized attribute, so "order A>B" holds for every weight
  // vector; session scripts draw their order edits from these.
  std::vector<std::pair<std::string, std::string>> order_pairs;
};

// NBA-simulator relation: n player-seasons, the first m of the eight
// default attributes (PTS, REB, AST, STL, BLK, FG%, 3P%, FT%), rows ordered
// by MP*PER (the paper's non-linear NBA ranking function), id column PLR.
rankhow::Result<RelationFile> WriteNbaRelation(const std::string& path,
                                               int n, int m, int k,
                                               uint64_t seed);

// CSRankings-simulator relation: n institutions x 27 areas, rows ordered by
// the geometric-mean score, id column INST.
rankhow::Result<RelationFile> WriteCsRankingsRelation(const std::string& path,
                                                      int n, int k,
                                                      uint64_t seed);

// Uniform synthetic relation (attributes A1..Am in [0,1)) whose first k
// rows are the top-k tuples by sum(A^3) in order (the Fig. 3j-l setting);
// the remaining rows follow in generation order. Id column ID.
rankhow::Result<RelationFile> WriteSyntheticRelation(const std::string& path,
                                                     int n, int m, int k,
                                                     uint64_t seed);

// SplitMix64 step: derives independent sub-seeds from the workload seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_

#ifndef RANKHOW_TESTS_SUPPORT_PROTOCOL_CONFORMANCE_H_
#define RANKHOW_TESTS_SUPPORT_PROTOCOL_CONFORMANCE_H_

/// \file protocol_conformance.h
/// The docs/PROTOCOL.md verb walk as a reusable fixture, parameterized
/// over the endpoint being spoken to. The same walk must pass against a
/// worker (`rankhow_cli --listen`) directly AND against that worker
/// behind `rankhow_coord` — the coordinator's transparency contract is
/// "clients cannot tell", and this fixture is the executable form of it.
///
/// Endpoint preconditions (the ServerFixture catalog shape):
///   * datasets `d0` and `d1` are served, `d0` the default;
///   * attributes are named A0..A2, tuples labelled t0..;
///   * the endpoint is fresh — the walk asserts exact registry/client
///     counts, so no other session may have touched it.
///
/// All assertions are GTest EXPECT/ASSERT; call from inside a TEST.

#include "net/dial.h"

namespace rankhow {
namespace conformance {

struct ConformanceOptions {
  /// Exact transport gauges (`metrics connections=1`) hold only when the
  /// endpoint is the worker itself. Behind a coordinator the worker's
  /// connection count includes health probes and pooled control
  /// connections, so the walk relaxes those asserts to field presence.
  /// Everything protocol-visible — ack texts, line numbers, error
  /// strings — stays exact in both modes.
  bool exact_transport_gauges = true;
};

/// Runs the complete documented verb set against `endpoint` over one
/// connection: open (both forms), the full session-command grammar,
/// stats, metrics, deadline, frame, the documented error replies,
/// close, and quit.
void RunProtocolVerbWalk(const ListenAddress& endpoint,
                         const ConformanceOptions& options =
                             ConformanceOptions());

}  // namespace conformance
}  // namespace rankhow

#endif  // RANKHOW_TESTS_SUPPORT_PROTOCOL_CONFORMANCE_H_

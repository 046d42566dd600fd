// Open-loop load generation for the serving benchmark.
//
// A Plan is a seeded arrival schedule: every call has a due time, and
// calls are sent at their due time whether or not earlier ones have
// finished (shoppers are independent users). Each session is pinned to
// one connection, so its clicks reach the stack in order. Latency is
// measured from the *scheduled* send time, so a stall shows on every
// request queued behind it; the round trip of the call itself is kept
// separately.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "data/click_log.h"
#include "data/synthetic.h"

namespace servebench {

using serenade::ItemId;

/// One recommend click of one session.
struct Click {
  uint32_t session = 0;
  ItemId item = 0;
  bool consent = true;
};

/// One scheduled HTTP call: a single GET (count == 1, batch off) or one
/// POST /v1/recommend:batch carrying `count` slots.
struct Call {
  uint64_t due_ns = 0;  ///< offset from the phase start; 0 = send at once
  uint32_t conn = 0;    ///< connection (and sender thread)
  uint32_t first = 0;   ///< first click in Plan::clicks
  uint32_t count = 0;   ///< clicks carried by this call
};

struct Plan {
  std::string key_prefix;  ///< session key = key_prefix + session number
  bool batch = false;      ///< POST batches instead of single GETs
  std::vector<Click> clicks;  ///< contiguous per call, in call order
  std::vector<Call> calls;    ///< ascending due time
  /// Stored history each session starts from (empty = new visitor);
  /// indexed by session number, may be shorter than the session count.
  std::vector<std::vector<ItemId>> prefill;

  std::string Key(uint32_t session) const {
    return key_prefix + std::to_string(session);
  }
  size_t recommendations() const { return clicks.size(); }
};

/// Where plan clicks come from: replayed synthetic sessions, cycled.
struct ClickSource {
  const serenade::Dataset* sessions = nullptr;
  double no_consent_fraction = 0.02;
};

/// Single-GET plan: Poisson arrivals at `calls_per_s` for `duration_s`.
/// Replayed sessions interleave (a pool of active visitors), each one
/// pinned to connection `session % connections`. With max_clicks > 0
/// every session is cut to a seeded length in [1, max_clicks].
Plan BuildSinglePlan(const ClickSource& source, double calls_per_s,
                     double duration_s, size_t connections,
                     size_t max_clicks, uint64_t seed, std::string prefix);

/// Batch plan: Poisson arrivals of `slots`-slot calls. Each call spans
/// 4-8 returning sessions of its connection (so keys repeat inside a
/// batch); every session starts from a stored history of
/// `stored_length` items.
Plan BuildBatchPlan(const ClickSource& source, double calls_per_s,
                    double duration_s, size_t connections, size_t slots,
                    size_t sessions_per_conn, size_t stored_length,
                    uint64_t seed, std::string prefix);

/// Closed-loop variant of a plan: every due time set to zero, so each
/// connection sends back to back (warm-up).
void MakeClosedLoop(Plan* plan);

struct CallResult {
  int64_t latency_ns = 0;  ///< scheduled send -> last response byte
  int64_t rtt_ns = 0;      ///< actual send -> last response byte
  /// How late the generator sent: actual send minus the later of the
  /// due time and the end of the connection's previous call (waiting
  /// behind that call is the stack's latency, not the generator's).
  int64_t lag_ns = 0;
  int64_t send_ns = 0;     ///< actual send, offset from the phase start
  bool ok = false;
};

/// What a response must satisfy besides a 200 and a well-formed body.
struct ResponseRules {
  const serenade::ItemCatalog* catalog = nullptr;
  size_t max_items = 21;
};

struct PhaseResult {
  std::vector<CallResult> calls;  ///< indexed like Plan::calls
  /// Items returned per click, kept only for sessions `keep` selected.
  std::vector<std::vector<ItemId>> items;
  uint64_t failed = 0;               ///< calls that failed any check
  uint64_t rule_violations = 0;      ///< of those, broken business rules
  std::vector<std::string> errors;   ///< first few failure reasons
};

/// Sends `plan` to 127.0.0.1:`port` over plan-many connections (one
/// keep-alive HttpClient and one thread each) and checks every response
/// against `rules`. `keep(session)` selects sessions whose returned items
/// are recorded for the correctness replay (null keeps none).
PhaseResult RunPlan(const Plan& plan, uint16_t port, size_t connections,
                    const ResponseRules& rules,
                    const std::function<bool(uint32_t)>& keep = nullptr);

/// Parses the item lists out of a recommend response body: one list for
/// a single response, one per slot for a batch. False on any error
/// entry or malformed body.
bool ParseItemLists(const std::string& body,
                    std::vector<std::vector<ItemId>>* lists);

/// Exact percentile (nearest rank) of unsorted values, in the values' unit.
double Percentile(std::vector<int64_t> values, double q);

}  // namespace servebench

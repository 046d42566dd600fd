#include "load.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "serving/http.h"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

int64_t NanosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

// Poisson arrivals: exponential gaps at `rate` per second until
// `duration_s`, in nanoseconds from the phase start.
std::vector<uint64_t> PoissonArrivals(double rate, double duration_s,
                                      serenade::Rng& rng) {
  std::vector<uint64_t> due;
  due.reserve(static_cast<size_t>(rate * duration_s * 1.1) + 16);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= duration_s) break;
    due.push_back(static_cast<uint64_t>(t * 1e9));
  }
  return due;
}

// Cycles through the replayed sessions' clicks.
class ReplayCursor {
 public:
  ReplayCursor(const serenade::Dataset& sessions, serenade::Rng& rng)
      : sessions_(sessions.sessions()),
        next_(rng.Below(sessions_.size())) {}

  const std::vector<ItemId>& NextSession() {
    const auto& items = sessions_[next_].items;
    next_ = (next_ + 1) % sessions_.size();
    return items;
  }

  ItemId NextItem() {
    while (pos_ >= current_.size()) {
      current_ = NextSession();
      pos_ = 0;
    }
    return current_[pos_++];
  }

 private:
  const std::vector<serenade::SessionData>& sessions_;
  size_t next_;
  std::vector<ItemId> current_;
  size_t pos_ = 0;
};

std::string RequestPath(const Plan& plan, const Click& click) {
  std::string path = "/v1/recommend?session_id=" + plan.Key(click.session) +
                     "&item_id=" + std::to_string(click.item);
  if (!click.consent) path += "&consent=false";
  return path;
}

std::string BatchBody(const Plan& plan, const Call& call) {
  std::string body = "{\"requests\":[";
  for (uint32_t i = 0; i < call.count; ++i) {
    const Click& click = plan.clicks[call.first + i];
    if (i > 0) body += ',';
    body += "{\"session_id\":\"" + plan.Key(click.session) +
            "\",\"item_id\":" + std::to_string(click.item);
    if (!click.consent) body += ",\"consent\":false";
    body += '}';
  }
  body += "]}";
  return body;
}

// Returns "" when every list obeys the business rules, else the reason.
std::string CheckRules(const std::vector<std::vector<ItemId>>& lists,
                       const ResponseRules& rules) {
  for (const auto& items : lists) {
    if (items.size() > rules.max_items) return "more than max_items items";
    for (ItemId item : items) {
      if (item >= rules.catalog->num_items()) return "item outside catalog";
      if (!rules.catalog->available[item]) return "unavailable item";
      if (rules.catalog->adult[item]) return "adult item";
    }
  }
  return "";
}

}  // namespace

Plan BuildSinglePlan(const ClickSource& source, double calls_per_s,
                     double duration_s, size_t connections,
                     size_t max_clicks, uint64_t seed, std::string prefix) {
  serenade::Rng rng(seed);
  Plan plan;
  plan.key_prefix = std::move(prefix);
  ReplayCursor cursor(*source.sessions, rng);

  // A pool of concurrently browsing visitors; each arrival advances a
  // random one, and a finished visitor is replaced by a new session.
  struct Visitor {
    uint32_t session = 0;
    std::vector<ItemId> items;
    size_t next = 0;
  };
  uint32_t sessions = 0;
  auto new_visitor = [&]() {
    Visitor visitor;
    visitor.session = sessions++;
    visitor.items = cursor.NextSession();
    if (max_clicks > 0) {
      const size_t length = 1 + rng.Below(max_clicks);
      if (visitor.items.size() > length) visitor.items.resize(length);
    }
    return visitor;
  };
  std::vector<Visitor> active(64);
  for (Visitor& visitor : active) visitor = new_visitor();

  for (uint64_t due : PoissonArrivals(calls_per_s, duration_s, rng)) {
    Visitor& visitor = active[rng.Below(active.size())];
    const Click click{visitor.session, visitor.items[visitor.next++],
                      !rng.Bernoulli(source.no_consent_fraction)};
    plan.calls.push_back(Call{due,
                              static_cast<uint32_t>(click.session %
                                                    connections),
                              static_cast<uint32_t>(plan.clicks.size()), 1});
    plan.clicks.push_back(click);
    if (visitor.next == visitor.items.size()) visitor = new_visitor();
  }
  return plan;
}

Plan BuildBatchPlan(const ClickSource& source, double calls_per_s,
                    double duration_s, size_t connections, size_t slots,
                    size_t sessions_per_conn, size_t stored_length,
                    uint64_t seed, std::string prefix) {
  serenade::Rng rng(seed);
  Plan plan;
  plan.key_prefix = std::move(prefix);
  plan.batch = true;
  ReplayCursor cursor(*source.sessions, rng);

  // Session s belongs to connection s % connections.
  const size_t total_sessions = sessions_per_conn * connections;
  plan.prefill.resize(total_sessions);
  for (auto& history : plan.prefill) {
    history.resize(stored_length);
    for (ItemId& item : history) item = cursor.NextItem();
  }

  for (uint64_t due : PoissonArrivals(calls_per_s, duration_s, rng)) {
    const uint32_t conn = static_cast<uint32_t>(rng.Below(connections));
    const size_t spread = std::min<size_t>(4 + rng.Below(5), slots);
    std::vector<uint32_t> members;
    while (members.size() < spread) {
      const uint32_t session = static_cast<uint32_t>(
          rng.Below(sessions_per_conn) * connections + conn);
      if (std::find(members.begin(), members.end(), session) ==
          members.end()) {
        members.push_back(session);
      }
    }
    // Every member gets one slot, the rest go to random members; the
    // slot order is shuffled so repeated keys interleave.
    std::vector<uint32_t> owners(members);
    while (owners.size() < slots) {
      owners.push_back(members[rng.Below(members.size())]);
    }
    std::shuffle(owners.begin(), owners.end(), rng);
    plan.calls.push_back(Call{due, conn,
                              static_cast<uint32_t>(plan.clicks.size()),
                              static_cast<uint32_t>(slots)});
    for (uint32_t session : owners) {
      plan.clicks.push_back(Click{session, cursor.NextItem(),
                                  !rng.Bernoulli(source.no_consent_fraction)});
    }
  }
  return plan;
}

void MakeClosedLoop(Plan* plan) {
  for (Call& call : plan->calls) call.due_ns = 0;
}

bool ParseItemLists(const std::string& body,
                    std::vector<std::vector<ItemId>>* lists) {
  lists->clear();
  if (body.find("\"error\"") != std::string::npos) return false;
  static constexpr char kItems[] = "\"items\":[";
  size_t pos = 0;
  while ((pos = body.find(kItems, pos)) != std::string::npos) {
    pos += sizeof(kItems) - 1;
    std::vector<ItemId>& items = lists->emplace_back();
    while (pos < body.size() && body[pos] != ']') {
      uint64_t value = 0;
      size_t digits = 0;
      while (pos < body.size() && body[pos] >= '0' && body[pos] <= '9') {
        value = value * 10 + static_cast<uint64_t>(body[pos] - '0');
        ++pos;
        ++digits;
      }
      if (digits == 0 || value > 0xffffffffULL) return false;
      items.push_back(static_cast<ItemId>(value));
      if (pos < body.size() && body[pos] == ',') ++pos;
    }
    if (pos >= body.size()) return false;
  }
  return !lists->empty();
}

double Percentile(std::vector<int64_t> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return static_cast<double>(values[index]);
}

PhaseResult RunPlan(const Plan& plan, uint16_t port, size_t connections,
                    const ResponseRules& rules,
                    const std::function<bool(uint32_t)>& keep) {
  PhaseResult result;
  result.calls.resize(plan.calls.size());
  result.items.resize(plan.clicks.size());
  std::vector<std::vector<uint32_t>> per_conn(connections);
  for (uint32_t i = 0; i < plan.calls.size(); ++i) {
    per_conn[plan.calls[i].conn % connections].push_back(i);
  }
  std::mutex error_mutex;
  uint64_t failed = 0, rule_violations = 0;
  auto fail = [&](const std::string& reason) {
    std::lock_guard<std::mutex> lock(error_mutex);
    ++failed;
    if (reason.rfind("business rules", 0) == 0) ++rule_violations;
    if (result.errors.size() < 8) result.errors.push_back(reason);
  };

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto sender = [&](size_t conn) {
    // Wake at the due time, not up to 50 us after it (the default slack).
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    serenade::HttpClient client;
    const serenade::Status connected = client.Connect(port);
    std::vector<std::vector<ItemId>> lists;
    int64_t free_ns = 0;  // when the connection's previous call ended
    for (uint32_t index : per_conn[conn]) {
      const Call& call = plan.calls[index];
      const Clock::time_point due = start + std::chrono::nanoseconds(call.due_ns);
      std::this_thread::sleep_until(due);
      CallResult& out = result.calls[index];
      out.send_ns = NanosSince(start);
      out.lag_ns = std::max<int64_t>(
          0, out.send_ns -
                 std::max(free_ns, static_cast<int64_t>(call.due_ns)));
      if (!connected.ok()) {
        fail("connect: " + connected.ToString());
        continue;
      }
      const Clock::time_point sent = Clock::now();
      auto response =
          plan.batch ? client.Post("/v1/recommend:batch", BatchBody(plan, call))
                     : client.Get(RequestPath(plan, plan.clicks[call.first]));
      out.rtt_ns = NanosSince(sent);
      free_ns = NanosSince(start);
      out.latency_ns = free_ns - static_cast<int64_t>(call.due_ns);
      if (!response.ok()) {
        fail("transport: " + response.status().ToString());
        continue;
      }
      if (response->status != 200) {
        fail("status " + std::to_string(response->status) + ": " +
             response->body.substr(0, 200));
        continue;
      }
      if (!ParseItemLists(response->body, &lists) || lists.size() != call.count) {
        fail("malformed body: " + response->body.substr(0, 200));
        continue;
      }
      const std::string broken = CheckRules(lists, rules);
      if (!broken.empty()) {
        fail("business rules: " + broken);
        continue;
      }
      out.ok = true;
      if (keep) {
        for (uint32_t i = 0; i < call.count; ++i) {
          if (keep(plan.clicks[call.first + i].session)) {
            result.items[call.first + i] = std::move(lists[i]);
          }
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t conn = 0; conn < connections; ++conn) {
    threads.emplace_back(sender, conn);
  }
  for (std::thread& thread : threads) thread.join();
  result.failed = failed;
  result.rule_violations = rule_violations;
  return result;
}

}  // namespace servebench

#include "ecash/checks.h"

#include <exception>
#include <optional>
#include <vector>

#include "metrics/counters.h"

namespace p2pcash::ecash {
namespace {

std::size_t run_in_order(std::span<const std::function<bool()>> tasks) {
  for (std::size_t i = 0; i < tasks.size(); ++i)
    if (!tasks[i]()) return i;
  return tasks.size();
}

}  // namespace

Outcome<std::monostate> run_checks(std::span<const Check> checks,
                                   const CheckRunner& runner) {
  // One slot per check, written only by the thread that runs it; the
  // runner's join orders those writes before the reads below.
  struct Slot {
    metrics::OpCounters ops;
    std::optional<Refusal> refusal;
    std::exception_ptr error;
  };
  std::vector<Slot> slots(checks.size());
  std::vector<std::function<bool()>> tasks;
  tasks.reserve(checks.size());
  for (std::size_t i = 0; i < checks.size(); ++i) {
    tasks.emplace_back([&check = checks[i], &slot = slots[i]] {
      metrics::ScopedOpCounting counting(slot.ops);
      try {
        auto ok = check();
        if (ok) return true;
        slot.refusal = ok.refusal();
      } catch (...) {
        slot.error = std::current_exception();
      }
      return false;
    });
  }
  const std::size_t failed = runner ? runner(tasks) : run_in_order(tasks);
  if (metrics::OpCounters* active = metrics::active_counters()) {
    for (std::size_t i = 0; i < slots.size() && i <= failed; ++i)
      *active += slots[i].ops;
  }
  if (failed >= slots.size()) return std::monostate{};
  if (slots[failed].error) std::rethrow_exception(slots[failed].error);
  return std::move(*slots[failed].refusal);
}

}  // namespace p2pcash::ecash

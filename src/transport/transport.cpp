#include "transport/transport.h"

namespace p2pcash::transport {

// Out-of-line key function: anchors the vtable in this translation unit.
Transport::~Transport() = default;

std::size_t Transport::run_checks(
    std::span<const std::function<bool()>> checks) {
  for (std::size_t i = 0; i < checks.size(); ++i)
    if (!checks[i]()) return i;
  return checks.size();
}

}  // namespace p2pcash::transport

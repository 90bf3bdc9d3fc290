#include "core/placement.h"

#include "common/assert.h"

namespace wadc::core {

std::vector<OperatorId> Placement::diff(const Placement& other) const {
  WADC_ASSERT(locations_.size() == other.locations_.size(),
              "placements over different trees");
  std::vector<OperatorId> moved;
  for (std::size_t i = 0; i < locations_.size(); ++i) {
    if (locations_[i] != other.locations_[i]) {
      moved.push_back(static_cast<OperatorId>(i));
    }
  }
  return moved;
}

std::string Placement::to_string() const {
  std::string out = "[";
  for (std::size_t i = 0; i < locations_.size(); ++i) {
    if (i > 0) out += " ";
    out += std::to_string(locations_[i]);
  }
  out += "]";
  return out;
}

}  // namespace wadc::core

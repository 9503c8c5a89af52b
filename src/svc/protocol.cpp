#include "svc/protocol.hpp"

namespace bfvr::svc {

void checkFrameType(const Frame& f, FrameType want) {
  if (f.type != want) {
    throw Error(std::string("protocol: expected ") + to_string(want) +
                " frame, got " + to_string(f.type));
  }
}

void StatsQuery::check() const {
  if ((flags & ~kAllSections) != 0) {
    throw Error("protocol: unknown stats section flags");
  }
}

}  // namespace bfvr::svc

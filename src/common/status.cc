#include "common/status.h"

namespace paradise {

namespace {
const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kCorruption: return "CORRUPTION";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}
}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace paradise

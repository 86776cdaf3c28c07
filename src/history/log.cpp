#include "history/log.hpp"

namespace detect::hist {

std::string log::to_string() const { return format_log(snapshot()); }

}  // namespace detect::hist

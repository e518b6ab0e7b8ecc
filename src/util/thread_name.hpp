// Names the calling thread so per-thread tools (`top -H`, `ps -L`,
// /proc/<pid>/task/<tid>/comm) tell a server's threads apart.
#pragma once

#include <string>

namespace ccpr::util {

/// Set the calling thread's name. Linux keeps at most 15 bytes; longer
/// names are cut. Best effort: a failure leaves the old name.
void set_thread_name(const std::string& name);

}  // namespace ccpr::util

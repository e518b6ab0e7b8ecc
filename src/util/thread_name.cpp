#include "util/thread_name.hpp"

#include <pthread.h>

namespace ccpr::util {

void set_thread_name(const std::string& name) {
  constexpr std::size_t kMaxLen = 15;  // kernel limit, without the NUL
  [[maybe_unused]] const int rc =
      ::pthread_setname_np(::pthread_self(), name.substr(0, kMaxLen).c_str());
}

}  // namespace ccpr::util

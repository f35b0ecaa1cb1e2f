// Fixture: must trip [platform-guard]. The library is POSIX-only; a
// Windows branch would be a second code path no CI job ever compiles.
#if !defined(_WIN32)
#include <unistd.h>
#endif

int page_size() {
#if defined(_WIN32)
  return 4096;
#else
  return static_cast<int>(::sysconf(_SC_PAGESIZE));
#endif
}

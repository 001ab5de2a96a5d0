// Tiny dependency-free check macros for the ctest suite.  A failed check
// prints the expression and location and exits non-zero; main() returning 0
// marks the test passed.  ExpectDeath runs a contract violation in a forked
// child and expects the NETSHUFFLE_FATAL abort path.

#ifndef NETSHUFFLE_TESTS_TEST_UTIL_H_
#define NETSHUFFLE_TESTS_TEST_UTIL_H_

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

#define CHECK(cond)                                                        \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", __FILE__,        \
                   __LINE__, #cond);                                       \
      std::exit(1);                                                        \
    }                                                                      \
  } while (0)

#define CHECK_NEAR(a, b, tol)                                              \
  do {                                                                     \
    const double va = (a), vb = (b), vtol = (tol);                         \
    if (!(std::fabs(va - vb) <= vtol)) {                                   \
      std::fprintf(stderr,                                                 \
                   "CHECK_NEAR failed at %s:%d: %s=%g vs %s=%g (tol %g)\n",\
                   __FILE__, __LINE__, #a, va, #b, vb, vtol);              \
      std::exit(1);                                                        \
    }                                                                      \
  } while (0)

namespace netshuffle_test {

/// Runs `violation` in a forked child and expects the NETSHUFFLE_FATAL
/// abort path: the child must die by SIGABRT (core/status.h ends in
/// std::abort).  Any exit, and any other signal (a segfault included),
/// fails the check.  The child arms a 60 s alarm, so a violation that hangs
/// (say, one that reaches the thread pool, whose workers a fork does not
/// copy) dies by SIGALRM and fails instead of stalling the suite.
template <typename Fn>
void ExpectDeath(Fn violation) {
  const pid_t pid = fork();
  CHECK(pid >= 0);
  if (pid == 0) {
    alarm(60);
    violation();
    _exit(0);  // reaching here fails the parent's check
  }
  int wstatus = 0;
  CHECK(waitpid(pid, &wstatus, 0) == pid);
  CHECK(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGABRT);
}

}  // namespace netshuffle_test

#endif  // NETSHUFFLE_TESTS_TEST_UTIL_H_

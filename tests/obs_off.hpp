// Under -DIGUARD_OBS_OFF the record bodies compile away and registries stay
// empty by design. A test that asserts recorded values skips itself, or the
// part of itself that reads them; everything it checks before the skip (and
// the rest of the suite) still runs. scripts/check.sh --obs-off builds and
// runs the suite that way.
#pragma once

#include <gtest/gtest.h>

#if defined(IGUARD_OBS_OFF)
inline constexpr bool kObsOn = false;
#define IGUARD_SKIP_IF_OBS_OFF() \
  GTEST_SKIP() << "built with IGUARD_OBS_OFF: instruments compiled out"
#else
inline constexpr bool kObsOn = true;
#define IGUARD_SKIP_IF_OBS_OFF() (void)0
#endif

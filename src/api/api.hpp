// detect::api — the unified façade over the detectable-objects suite.
//
//   handles.hpp   typed object handles building op_desc values
//   registry.hpp  kind-string → factory registry (object_registry)
//   harness.hpp   the harness builder wiring world/board/log/runtime
//   executor.hpp  pluggable execution backends (single / sharded / threads)
//                 behind one builder policy
//   replay.hpp    replayable scripted scenarios: replay/dump/parse and the
//                 per-family opcode alphabets generators draw from
//
// Everything a scenario, test, bench, or example needs is reachable from
// this one include.
#pragma once

#include "api/executor.hpp"   // IWYU pragma: export
#include "api/handles.hpp"    // IWYU pragma: export
#include "api/harness.hpp"    // IWYU pragma: export
#include "api/registry.hpp"   // IWYU pragma: export
#include "api/replay.hpp"     // IWYU pragma: export

// The exact accounting identities of a serving run, in one place.
//
// Every configuration the executor runs (server.h) — closed-loop or
// scheduled, serial or pipelined, one device or sharded, with or without
// chaos — produces a ServingReport on which four identities hold exactly:
//
//  1. timeline tiling: per device, Sigma exposed + idle == makespan, and
//     total_cycles is the slowest device's makespan (unsharded, the whole
//     timeline is device 0);
//  2. gather byte conservation: hit + miss + remote_hit + remote_miss bytes
//     == Sigma unique gathered vertices x row bytes;
//  3. cycle conservation: Sigma batch cycles == ledger.total() ==
//     serial_cycles, each batch's cycles being its stages + backoff +
//     handoff;
//  4. outcome tiling: served + degraded + failed + rejected covers every
//     request, overall and per tenant.
//
// Tests and benches check them after a serve; serve() itself does not.
#pragma once

#include <string>
#include <vector>

#include "serve/server.h"

namespace gnnone::serve {

/// One message per violated identity; empty when `rep` — a report `server`
/// produced — is consistent.
std::vector<std::string> check_invariants(const ServingReport& rep,
                                          const InferenceServer& server);

}  // namespace gnnone::serve

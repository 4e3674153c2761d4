// Identifier types for the replicated data store and its workloads.
//
// Split out of store/types.hpp so ID-only consumers (capacity
// planning, workload generators) don't drag in the protocol structs'
// simulator dependencies.
//
// Two tiers, both enforced by brblint's BRB-D04 check:
//
//   * Dense aliases (ClientId, ServerId, KeyId, ...) — raw integers by
//     construction because they index flat arrays on the hot path and
//     double as net::NodeIds. API boundaries must spell the alias, not
//     the underlying integer, so a reader (and the linter) can tell
//     which ID kind crosses.
//   * Strong wrappers (TenantId) — distinct types with explicit
//     construction. Tenant indices select per-tenant result slots,
//     policy bindings and client blocks; confusing one with a
//     client/server index would corrupt artifacts silently. New ID
//     kinds should start strong and only decay to an alias with a
//     measured hot-path justification.
#pragma once

#include <cstdint>

#include "net/node_id.hpp"
#include "util/strong_id.hpp"

namespace brb::store {

/// Key in the data store's flat 64-bit keyspace.
using KeyId = std::uint64_t;

/// A replica group: the set of servers holding one data partition.
using GroupId = std::uint32_t;

/// Backend server index within the cluster (also its net::NodeId).
using ServerId = net::NodeId;

/// Application-server (client) index (also its net::NodeId).
using ClientId = net::NodeId;

/// Globally unique task identifier.
using TaskId = std::uint64_t;

/// Request identifier: an opaque handle the issuing client's request
/// book assigns at transmit, unique among a run's live requests.
using RequestId = std::uint64_t;

/// Tenant index in a multi-tenant workload (0 in single-tenant runs).
/// Strong: tenant indices address per-tenant result slots and policy
/// bindings, never network endpoints, and must not mix with
/// ClientId/ServerId arithmetic.
using TenantId = util::StrongId<struct TenantIdTag, std::uint32_t>;

}  // namespace brb::store

// The recorded swarm fingerprint table: one row per config shape, with the
// digest and event count the simulator produced for it. Shared by the
// fingerprint test (which pins the digests) and the audit test (which runs
// every shape with the invariant audit on).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "swarm/swarm_sim.hpp"

namespace swarmavail::swarm::fingerprint_table {

struct Shape {
    std::size_t bundle_size = 4;
    std::size_t pieces_per_file = 8;
    PublisherBehavior publisher = PublisherBehavior::kOnOff;
    std::size_t max_neighbors = 0;
    bool super_seeding = false;
    bool linger = false;
    bool bittyrant = false;  ///< BitTyrant capacities plus the reciprocity cap
    bool trace = false;      ///< fixed arrival instants instead of Poisson
    bool drain = false;
    double jitter = 0.15;
    std::size_t up_slots = 4;
    std::size_t down_slots = 4;
    std::uint64_t seed = 11;
    double horizon = 2000.0;
};

struct Row {
    const char* name;
    Shape shape;
    std::uint64_t fingerprint;
    std::uint64_t events;
};

inline SwarmSimConfig config_for(const Shape& s) {
    SwarmSimConfig config;
    config.bundle_size = s.bundle_size;
    config.pieces_per_file = s.pieces_per_file;
    config.file_size = 1.0e6 * 8.0;
    config.peer_arrival_rate = 1.0 / 60.0;
    config.peer_capacity = std::make_shared<HomogeneousCapacity>(50.0 * kKBps);
    config.publisher_capacity = 100.0 * kKBps;
    config.publisher = s.publisher;
    config.publisher_on_mean = 300.0;
    config.publisher_off_mean = 900.0;
    config.max_neighbors = s.max_neighbors;
    config.super_seeding = s.super_seeding;
    if (s.linger) {
        config.peers_linger = true;
        config.linger_mean = 150.0;
    }
    if (s.bittyrant) {
        config.peer_capacity = std::make_shared<BitTyrantCapacity>();
        config.reciprocity_cap = true;
    }
    if (s.trace) {
        for (double t = 5.0; t < 2000.0; t += 37.0 + 0.25 * (t - 5.0) / 10.0) {
            config.arrival_trace.push_back(t);
        }
    }
    config.drain_after_horizon = s.drain;
    config.drain_deadline_factor = 4.0;
    config.transfer_jitter = s.jitter;
    config.max_upload_slots = s.up_slots;
    config.max_download_slots = s.down_slots;
    config.horizon = s.horizon;
    config.seed = s.seed;
    return config;
}

using P = PublisherBehavior;

// Recorded with the simulator as of this table's introduction.
inline const std::vector<Row>& rows() {
    static const std::vector<Row> table = {
        {"k1_onoff", {.bundle_size = 1},
         0xef1cb21afa8ef1dd, 119},
        {"k4_onoff", {.bundle_size = 4},
         0x71157cb2a6217115, 4374},
        {"k10_onoff", {.bundle_size = 10},
         0x39f2305468e7933e, 25722},
        {"k8_onoff_drain", {.bundle_size = 8, .drain = true},
         0x47cdf78e202cf68b, 16514},
        {"k1_always_on", {.bundle_size = 1, .publisher = P::kAlwaysOn},
         0x06e9cfdc09c38faa, 252},
        {"k4_always_on_drain",
         {.bundle_size = 4, .publisher = P::kAlwaysOn, .drain = true},
         0x2c239e4c6a6b3bfb, 4719},
        {"k2_leave_after_first",
         {.bundle_size = 2, .publisher = P::kLeaveAfterFirstCompletion},
         0x02c7288c29e47232, 85},
        {"k10_leave_after_first",
         {.bundle_size = 10, .publisher = P::kLeaveAfterFirstCompletion},
         0x2ace67e9c3eb7710, 26441},
        {"k4_super_seeding", {.bundle_size = 4, .super_seeding = true},
         0x94f4066b7cd2b282, 4222},
        {"k10_super_seeding_leave",
         {.bundle_size = 10,
          .publisher = P::kLeaveAfterFirstCompletion,
          .super_seeding = true},
         0x06ff2f7359ba7f09, 24782},
        {"k4_linger", {.bundle_size = 4, .linger = true},
         0x2a773d8db35c9c6f, 4816},
        {"k10_linger_drain", {.bundle_size = 10, .linger = true, .drain = true},
         0x951eb6eb1103e225, 25892},
        {"k4_neighbors3", {.bundle_size = 4, .max_neighbors = 3},
         0xc474bc2187f95c32, 4427},
        {"k10_neighbors3", {.bundle_size = 10, .max_neighbors = 3, .horizon = 700.0},
         0xeba4064f76f547dc, 8338},
        {"k1_neighbors3_always_on",
         {.bundle_size = 1, .publisher = P::kAlwaysOn, .max_neighbors = 3},
         0x43ad83d47cbe67cf, 252},
        {"k4_neighbors3_super_linger",
         {.bundle_size = 4, .max_neighbors = 3, .super_seeding = true, .linger = true},
         0xb6780f4f2a861e60, 4149},
        {"k4_bittyrant", {.bundle_size = 4, .bittyrant = true},
         0xac33f5de1a0af8cb, 4349},
        {"k10_bittyrant_super_drain",
         {.bundle_size = 10, .super_seeding = true, .bittyrant = true, .drain = true},
         0x3196ef3798f4bb7f, 26171},
        {"k10_neighbors3_bittyrant",
         {.bundle_size = 10, .max_neighbors = 3, .bittyrant = true, .horizon = 600.0},
         0x7da0c0d006017e77, 5925},
        {"k4_trace", {.bundle_size = 4, .trace = true},
         0xa4383916a1c4cece, 870},
        {"k10_trace_leave_after_first",
         {.bundle_size = 10, .publisher = P::kLeaveAfterFirstCompletion, .trace = true},
         0x6c164b33ab3ab006, 924},
        {"k3_ragged_tail_90_pieces", {.bundle_size = 3, .pieces_per_file = 30},
         0x352057aac7f861fd, 7826},
        {"k4_zero_jitter", {.bundle_size = 4, .jitter = 0.0},
         0x4833c5a956af475e, 4575},
        {"k4_uneven_slots",
         {.bundle_size = 4, .up_slots = 2, .down_slots = 6, .seed = 23},
         0x9f7d0609978edf6a, 4604},
    };
    return table;
}

}  // namespace swarmavail::swarm::fingerprint_table

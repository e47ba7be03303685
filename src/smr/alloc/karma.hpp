// Karma-style credit allocator.
//
// Tenants share the cluster's fixed slot pool through per-tenant credit
// balances.  Every policy period:
//   1. Live capacity C (summed map + reduce targets over healthy
//      trackers) is apportioned into per-tenant entitlements, one equal
//      share per tenant with active jobs.
//   2. Tenants demanding less than their entitlement *donate* the surplus
//      into a public block pool; tenants demanding more *borrow* from the
//      pool, one slot at a time in credit order (richest first, name as
//      the tiebreak), for as long as their balance covers the borrow rate.
//   3. Borrowers pay `borrow_rate` credits per borrowed slot-period;
//      donors earn `donate_rate` per donated slot-period actually used,
//      split proportionally to their donations.  With donate_rate ==
//      borrow_rate the total balance is conserved (the credit-conservation
//      unit test); `decay` then multiplies every balance.
//
// The allocator never touches tracker slot targets: tenant allocations
// become per-job in-flight caps (AllocationPolicy::job_task_caps), which
// the runtime's assignment loop honours.  A single-tenant run therefore
// degenerates to HadoopV1 byte-for-byte — its caps never bind — which the
// test Karma.SingleTenantIsBitIdenticalToHadoopV1 checks on the whole run
// result.  Everything here is ordered (std::map keyed by tenant name, job-id
// order) and RNG-free, so runs stay deterministic across shards × threads.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "smr/mapreduce/policy.hpp"

namespace smr::alloc {

struct KarmaConfig {
  /// Opening balance for a newly seen tenant.
  double init_credits = 100.0;
  /// Credits earned per donated slot-period actually borrowed.
  double donate_rate = 1.0;
  /// Credits paid per borrowed slot-period.
  double borrow_rate = 1.0;
  /// Per-period balance multiplier (1 = no decay).
  double decay = 1.0;

  /// Throws SmrError naming the `karma:` option at fault and its value.
  void validate() const;
};

class KarmaAllocator final : public mapreduce::AllocationPolicy {
 public:
  explicit KarmaAllocator(KarmaConfig config = {});

  std::string name() const override { return "Karma"; }
  bool wants_heartbeat_stats() const override { return false; }
  bool wants_job_stats() const override { return true; }

  void on_period(std::span<mapreduce::TaskTracker> trackers,
                 const mapreduce::ClusterStats& stats) override;

  const std::vector<int>* job_task_caps() const override { return &caps_; }
  std::vector<std::pair<std::string, double>> credit_balances() const override;

  // --- Introspection (tests, fairness trajectories) ---------------------
  const KarmaConfig& config() const { return config_; }
  double credits_minted() const { return minted_; }
  double credits_burned() const { return burned_; }
  /// Total balance across every tenant seen so far.
  double total_balance() const;
  long long borrowed_slot_periods() const { return borrowed_slot_periods_; }
  long long donated_slot_periods() const { return donated_slot_periods_; }
  int periods() const { return periods_; }

 private:
  KarmaConfig config_;
  /// Ordered by tenant name: iteration order is part of the determinism
  /// contract.
  std::map<std::string, double> balances_;
  std::vector<int> caps_;  // by JobId; -1 = unlimited
  double minted_ = 0.0;
  double burned_ = 0.0;
  long long borrowed_slot_periods_ = 0;
  long long donated_slot_periods_ = 0;
  int periods_ = 0;
};

}  // namespace smr::alloc

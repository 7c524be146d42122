#include "src/kvstore/kv_client.h"

#include "src/storage/durability.h"

namespace halfmoon::kvstore {
namespace {

constexpr double kRequestLegFraction = 0.4;
constexpr double kServiceFraction = 0.2;

}  // namespace

sim::Task<void> KvClient::Round(SimDuration total_latency) {
  auto leg = static_cast<SimDuration>(static_cast<double>(total_latency) * kRequestLegFraction);
  auto service =
      static_cast<SimDuration>(static_cast<double>(total_latency) * kServiceFraction);
  co_await scheduler_->Delay(leg);
  if (station_ != nullptr) {
    co_await station_->Process(service);
  } else {
    co_await scheduler_->Delay(service);
  }
  co_await scheduler_->Delay(leg);
}

sim::Task<void> KvClient::AwaitDurable(std::string_view site) {
  bool ok = co_await durability_->WaitOffset(state_->last_journal_offset());
  // A failed wait means a kill destroyed the journaled mutation (and with it the whole
  // volatile KV state). The attempt must not ack the write — abort it into the retry loop.
  if (!ok && crash_thrower_) crash_thrower_(site);
}

sim::Task<std::optional<Value>> KvClient::Get(std::string key) {
  ++stats_.reads;
  SimDuration total = models_->db_read.Sample(*rng_);
  auto leg = static_cast<SimDuration>(static_cast<double>(total) * kRequestLegFraction);
  auto service = static_cast<SimDuration>(static_cast<double>(total) * kServiceFraction);
  co_await scheduler_->Delay(leg);
  if (station_ != nullptr) {
    co_await station_->Process(service);
  } else {
    co_await scheduler_->Delay(service);
  }
  // Snapshot at the store, before the reply leg: the read's linearization point.
  std::optional<Value> value = state_->Get(key);
  co_await scheduler_->Delay(leg);
  co_return value;
}

sim::Task<std::optional<std::pair<Value, VersionTuple>>> KvClient::GetWithVersion(
    std::string key) {
  ++stats_.reads;
  SimDuration total = models_->db_read.Sample(*rng_);
  auto leg = static_cast<SimDuration>(static_cast<double>(total) * kRequestLegFraction);
  auto service = static_cast<SimDuration>(static_cast<double>(total) * kServiceFraction);
  co_await scheduler_->Delay(leg);
  if (station_ != nullptr) {
    co_await station_->Process(service);
  } else {
    co_await scheduler_->Delay(service);
  }
  std::optional<std::pair<Value, VersionTuple>> result;
  std::optional<Value> value = state_->Get(key);
  if (value.has_value()) {
    result.emplace(std::move(*value), state_->GetVersion(key).value_or(VersionTuple{}));
  }
  co_await scheduler_->Delay(leg);
  co_return result;
}

sim::Task<void> KvClient::Put(std::string key, Value value) {
  ++stats_.plain_writes;
  SimDuration total = models_->db_plain_write.Sample(*rng_);
  auto leg = static_cast<SimDuration>(static_cast<double>(total) * kRequestLegFraction);
  auto service = static_cast<SimDuration>(static_cast<double>(total) * kServiceFraction);
  co_await scheduler_->Delay(leg);
  if (station_ != nullptr) {
    co_await station_->Process(service);
  } else {
    co_await scheduler_->Delay(service);
  }
  // The write becomes visible when the store applies it, before the reply reaches the caller.
  state_->Put(scheduler_->Now(), key, value);
  if (durability_ != nullptr) co_await AwaitDurable("kv.put");
  co_await scheduler_->Delay(leg);
}

sim::Task<bool> KvClient::CondPut(std::string key, Value value, VersionTuple version) {
  ++stats_.cond_writes;
  SimDuration total = models_->db_cond_write.Sample(*rng_);
  auto leg = static_cast<SimDuration>(static_cast<double>(total) * kRequestLegFraction);
  auto service = static_cast<SimDuration>(static_cast<double>(total) * kServiceFraction);
  co_await scheduler_->Delay(leg);
  if (station_ != nullptr) {
    co_await station_->Process(service);
  } else {
    co_await scheduler_->Delay(service);
  }
  bool applied = state_->CondPut(scheduler_->Now(), key, value, version);
  if (!applied) ++stats_.cond_write_rejects;
  // Rejected conditional writes mutate (and journal) nothing — nothing to wait for.
  if (applied && durability_ != nullptr) co_await AwaitDurable("kv.cond_put");
  co_await scheduler_->Delay(leg);
  co_return applied;
}

sim::Task<void> KvClient::PutVersioned(ObjectId object, std::string version_id, Value value) {
  ++stats_.versioned_writes;
  SimDuration total = models_->db_plain_write.Sample(*rng_);
  auto leg = static_cast<SimDuration>(static_cast<double>(total) * kRequestLegFraction);
  auto service = static_cast<SimDuration>(static_cast<double>(total) * kServiceFraction);
  co_await scheduler_->Delay(leg);
  if (station_ != nullptr) {
    co_await station_->Process(service);
  } else {
    co_await scheduler_->Delay(service);
  }
  state_->PutVersioned(scheduler_->Now(), object, version_id, value);
  if (durability_ != nullptr) co_await AwaitDurable("kv.put_versioned");
  co_await scheduler_->Delay(leg);
}

sim::Task<std::optional<Value>> KvClient::GetVersioned(ObjectId object,
                                                       const std::string& version_id) {
  ++stats_.versioned_reads;
  SimDuration total = models_->db_read.Sample(*rng_);
  auto leg = static_cast<SimDuration>(static_cast<double>(total) * kRequestLegFraction);
  auto service = static_cast<SimDuration>(static_cast<double>(total) * kServiceFraction);
  co_await scheduler_->Delay(leg);
  if (station_ != nullptr) {
    co_await station_->Process(service);
  } else {
    co_await scheduler_->Delay(service);
  }
  std::optional<Value> value = state_->GetVersioned(object, version_id);
  co_await scheduler_->Delay(leg);
  co_return value;
}

sim::Task<bool> KvClient::DeleteVersioned(ObjectId object, std::string version_id) {
  ++stats_.deletes;
  SimDuration total = models_->db_plain_write.Sample(*rng_);
  co_await Round(total);
  bool deleted = state_->DeleteVersioned(scheduler_->Now(), object, version_id);
  if (deleted && durability_ != nullptr) co_await AwaitDurable("kv.delete_versioned");
  co_return deleted;
}

}  // namespace halfmoon::kvstore

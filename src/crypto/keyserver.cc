#include "crypto/keyserver.h"

#include <cstring>

#include "crypto/chacha20.h"
#include "crypto/mac.h"

namespace canal::crypto {
namespace {

Nonce96 identity_nonce(const std::string& identity) {
  return derive_nonce(identity, 0);
}

}  // namespace

KeyServer::KeyServer(sim::EventLoop& loop, net::AzId az, std::size_t cores,
                     sim::Rng rng, CryptoCostModel model)
    : loop_(loop),
      az_(az),
      cpu_(loop, cores),
      rng_(rng),
      model_(model),
      accel_(loop, cpu_, AccelMode::kBatched, model) {
  // Master key lives only in memory; a restart regenerates it, which is
  // exactly the paper's flush-on-restart property.
  for (auto& b : master_key_) b = static_cast<std::uint8_t>(rng_.next());
}

void KeyServer::store_private_key(const std::string& identity,
                                  std::uint64_t private_key) {
  std::string plaintext(8, '\0');
  std::memcpy(plaintext.data(), &private_key, 8);
  encrypted_keys_[identity] =
      chacha20_apply(master_key_, identity_nonce(identity), plaintext);
}

bool KeyServer::has_key(const std::string& identity) const {
  return encrypted_keys_.contains(identity);
}

void KeyServer::establish_channel(const std::string& requester_id) {
  channels_.insert(requester_id);
}

bool KeyServer::has_channel(const std::string& requester_id) const {
  return channels_.contains(requester_id);
}

std::optional<std::uint64_t> KeyServer::decrypt_key(
    const std::string& identity) const {
  const auto it = encrypted_keys_.find(identity);
  if (it == encrypted_keys_.end()) return std::nullopt;
  const std::string plaintext =
      chacha20_apply(master_key_, identity_nonce(identity), it->second);
  std::uint64_t key = 0;
  std::memcpy(&key, plaintext.data(), 8);
  return key;
}

void KeyServer::handle_sign(const std::string& requester_id,
                            const std::string& identity,
                            std::string transcript, SignCallback done) {
  if (!available_ || !has_channel(requester_id)) {
    ++rejected_;
    loop_.post(0, [done = std::move(done)] { done(std::nullopt); });
    return;
  }
  const auto key = decrypt_key(identity);
  if (!key) {
    ++rejected_;
    loop_.post(0, [done = std::move(done)] { done(std::nullopt); });
    return;
  }
  // Request admission/unmarshalling cost, then the batched asymmetric op.
  cpu_.execute(model_.key_server_overhead, [this, key = *key,
                                            transcript = std::move(transcript),
                                            done = std::move(done)]() mutable {
    accel_.submit([this, key, transcript = std::move(transcript),
                   done = std::move(done)]() mutable {
      // The plaintext key exists only for the duration of this operation.
      const Signature sig = sign(key, transcript, rng_);
      ++served_;
      done(sig);
    });
  });
}

void KeyServerClient::sign(const std::string& identity, std::string transcript,
                           KeyServer::SignCallback done) {
  if (server_ != nullptr && server_->available()) {
    ++remote_;
    const sim::Duration one_way = config_.model.key_server_one_way;
    // Request transit -> server handling -> response transit.
    loop_.post(one_way, [this, identity, transcript = std::move(transcript),
                         done = std::move(done), one_way]() mutable {
      server_->handle_sign(
          config_.requester_id, identity, std::move(transcript),
          [this, done = std::move(done), one_way](std::optional<Signature> sig) {
            loop_.post(one_way, [done = std::move(done), sig] { done(sig); });
          });
    });
    return;
  }
  local_fallback(std::move(transcript), std::move(done));
}

void KeyServerClient::local_fallback(std::string transcript,
                                     KeyServer::SignCallback done) {
  if (!config_.local_private_key) {
    loop_.post(0, [done = std::move(done)] { done(std::nullopt); });
    return;
  }
  ++fallback_;
  local_cpu_.execute(config_.model.software_asym_cost,
                     [this, transcript = std::move(transcript),
                      done = std::move(done)]() mutable {
                       done(canal::crypto::sign(*config_.local_private_key,
                                                transcript, rng_));
                     });
}

}  // namespace canal::crypto

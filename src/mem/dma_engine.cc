#include "mem/dma_engine.hh"

#include <utility>

#include "base/checksum.hh"
#include "base/logging.hh"

namespace bmhive {

DmaEngine::DmaEngine(Simulation &sim, std::string name,
                     Bandwidth bandwidth, Tick startup)
    : SimObject(sim, std::move(name)), bandwidth_(bandwidth),
      startup_(startup),
      bytesMoved_(metrics().counter(this->name() + ".bytes_moved")),
      transfers_(metrics().counter(this->name() + ".transfers")),
      batchedSegments_(
          metrics().counter(this->name() + ".batched_segments")),
      faultInjected_(
          metrics().counter(this->name() + ".fault.injected")),
      ecrcChecked_(
          metrics().counter(this->name() + ".integrity.ecrc_checked")),
      ecrcDetected_(metrics().counter(
          this->name() + ".integrity.ecrc_detected")),
      ecrcHealed_(
          metrics().counter(this->name() + ".integrity.ecrc_healed")),
      ecrcEscalations_(metrics().counter(
          this->name() + ".integrity.ecrc_escalations")),
      retryLatency_(
          metrics().latency(this->name() + ".integrity.retry")),
      queueDepth_(metrics().gauge(this->name() + ".queue_depth")),
      batchSegs_(metrics().histogram(this->name() + ".batch_segs")),
      completeEvent_([this] { complete(); }, "dma.complete")
{
    panic_if(!bandwidth.valid(), "DMA engine needs positive bandwidth");
    sim_.faults().add(this->name(), [this](const fault::FaultSpec &s) {
        return injectFault(s);
    });
}

DmaEngine::~DmaEngine()
{
    sim_.faults().remove(name());
    if (completeEvent_.scheduled())
        eventq().deschedule(&completeEvent_);
}

bool
DmaEngine::injectFault(const fault::FaultSpec &spec)
{
    switch (spec.kind) {
      case fault::FaultKind::DmaCorrupt:
        corruptBudget_ += spec.count ? spec.count : 1;
        return true;
      case fault::FaultKind::DmaFail:
        failBudget_ += spec.count ? spec.count : 1;
        return true;
      default:
        return false;
    }
}

void
DmaEngine::copy(const GuestMemory &src, Addr src_addr, GuestMemory &dst,
                Addr dst_addr, Bytes len, Callback done)
{
    Transfer t;
    t.segs.push_back(CopySeg{&src, src_addr, &dst, dst_addr, len});
    t.len = len;
    t.done = std::move(done);
    enqueue(std::move(t));
}

void
DmaEngine::accountOnly(Bytes len, Callback done)
{
    Transfer t;
    t.segs.push_back(CopySeg{nullptr, 0, nullptr, 0, len});
    t.len = len;
    t.done = std::move(done);
    enqueue(std::move(t));
}

void
DmaEngine::copyv(std::vector<CopySeg> segs, Callback done)
{
    panic_if(segs.empty(), "empty scatter-gather transfer");
    Transfer t;
    t.segs = std::move(segs);
    for (const auto &s : t.segs)
        t.len += s.len;
    t.done = std::move(done);
    enqueue(std::move(t));
}

void
DmaEngine::enqueue(Transfer t)
{
    if (flight_)
        flight_->record(curTick(), obs::FlightEvent::CopyvSubmit, 0,
                        0, t.segs.size(), t.len);
    queue_.push_back(std::move(t));
    queueDepth_.set(double(queue_.size()));
    // Submissions from a completion callback queue behind the
    // unwinding completion; it resumes the engine itself.
    if (!busy_ && !inCompletion_)
        startNext();
}

void
DmaEngine::startNext()
{
    panic_if(busy_, "DMA engine started while busy");
    if (queue_.empty())
        return;
    busy_ = true;
    const Transfer &t = queue_.front();
    Tick duration = startup_ + bandwidth_.transferTime(t.len);
    scheduleIn(&completeEvent_, duration);
}

void
DmaEngine::complete()
{
    panic_if(queue_.empty(), "DMA completion with empty queue");
    inCompletion_ = true;
    Transfer t = std::move(queue_.front());
    queue_.pop_front();
    queueDepth_.set(double(queue_.size()));
    busy_ = false;

    // An account-only segment (null src) or a zero-length real
    // segment carries no bytes an injected corruption could touch;
    // budgets must only burn on transfers whose flip is observable.
    bool moves_data = false;
    for (const auto &s : t.segs)
        moves_data = moves_data || (s.src != nullptr && s.len > 0);

    // A fault budget unit consumes the whole transfer: the
    // hardware's descriptor either completes or aborts as a unit.
    bool failed = false;
    bool corrupted = false;
    if (moves_data) {
        if (failBudget_ > 0) {
            --failBudget_;
            failed = true;
        } else if (corruptBudget_ > 0) {
            --corruptBudget_;
            corrupted = true;
        }
        if (failed || corrupted)
            faultInjected_.inc();
    }
    bool mismatch = false;
    if (!failed) {
        // Stage every segment and checksum both ends: the reference
        // ECRC over the source bytes as read now (the TX side of
        // the link computes it per transfer, so a source the guest
        // legitimately rewrote since submit is not a mismatch) and
        // the landing CRC over what would actually be written.
        std::vector<std::vector<std::uint8_t>> blobs(t.segs.size());
        std::uint32_t ref = 0, landed = 0;
        for (std::size_t n = 0; n < t.segs.size(); ++n) {
            const auto &s = t.segs[n];
            if (s.src == nullptr)
                continue;
            // Perform the actual copy at completion time so readers
            // never observe half-finished transfers.
            blobs[n] = s.src->readBlob(s.srcAddr, s.len);
            ref = crc32c(blobs[n].data(), blobs[n].size(), ref);
            if (corrupted) {
                // Deterministic bit rot: every 64th byte flipped.
                auto &blob = blobs[n];
                for (std::size_t i = 0; i < blob.size(); i += 64)
                    blob[i] ^= 0xA5;
            }
            landed = crc32c(blobs[n].data(), blobs[n].size(),
                            landed);
        }
        if (integrity_ && moves_data) {
            ecrcChecked_.inc();
            mismatch = landed != ref;
        }
        if (!mismatch) {
            for (std::size_t n = 0; n < t.segs.size(); ++n) {
                const auto &s = t.segs[n];
                if (s.src != nullptr)
                    s.dst->writeBlob(s.dstAddr, blobs[n]);
            }
        }
    }
    bytesMoved_.inc(t.len);
    transfers_.inc();
    batchedSegments_.inc(t.segs.size());
    batchSegs_.record(t.segs.size());
    if (flight_)
        flight_->record(curTick(), obs::FlightEvent::CopyvComplete,
                        0, 0, t.segs.size(), t.len);

    if (mismatch) {
        ecrcDetected_.inc();
        if (flight_)
            flight_->record(curTick(),
                            obs::FlightEvent::IntegrityDetect, 0, 0,
                            /*where=*/0, t.len);
        if (t.retries < ecrcMaxRetries) {
            // Link-level replay: requeue at the head (the engine
            // retries before anything younger), re-reading a clean
            // source. The transfer pays startup + bandwidth again,
            // so the healed latency is SLO-visible.
            Transfer retry = std::move(t);
            if (retry.retries++ == 0)
                retry.firstDetect = curTick();
            queue_.push_front(std::move(retry));
            queueDepth_.set(double(queue_.size()));
            inCompletion_ = false;
            if (!busy_ && !queue_.empty())
                startNext();
            return;
        }
        // Retries exhausted: complete data-less (like DmaFail) and
        // let the owner escalate to a queue reset. The done callback
        // must observe lastDelivered() == false — the destination
        // was never written.
        ecrcEscalations_.inc();
        if (flight_)
            flight_->record(curTick(),
                            obs::FlightEvent::IntegrityEscalate, 0,
                            0, t.retries, t.len);
        lastDelivered_ = false;
        if (t.done)
            t.done();
        if (integrityHandler_)
            integrityHandler_();
        else if (errorHandler_)
            errorHandler_();
        inCompletion_ = false;
        if (!busy_ && !queue_.empty())
            startNext();
        return;
    }
    if (t.retries > 0 && !failed) {
        // A detected corruption healed by replay: record how long
        // the data was held off the destination.
        ecrcHealed_.inc();
        retryLatency_.record(curTick() - t.firstDetect);
        if (flight_)
            flight_->record(curTick(),
                            obs::FlightEvent::IntegrityRetry, 0, 0,
                            t.retries, t.len);
    }

    // The completion callback still runs on failure: the engine's
    // timing pipeline is unaffected, only the data never landed.
    // Callbacks run before the next transfer starts, so a retry
    // issued from `done` cannot begin before the error handler has
    // seen this transfer fail.
    lastDelivered_ = !failed;
    if (t.done)
        t.done();
    if (failed && errorHandler_)
        errorHandler_();
    inCompletion_ = false;
    if (!busy_ && !queue_.empty())
        startNext();
}

} // namespace bmhive

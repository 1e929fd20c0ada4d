#include "workloads/fio.hh"

#include <utility>

#include "base/logging.hh"

namespace bmhive {
namespace workloads {

FioRunner::FioRunner(Simulation &sim, std::string name,
                     GuestContext guest, FioParams params)
    : SimObject(sim, std::move(name)), guest_(guest),
      params_(params)
{
    panic_if(guest_.blk == nullptr,
             this->name(), ": guest has no block device");
}

void
FioRunner::start()
{
    measureStart_ = curTick() + params_.warmup;
    measureEnd_ = measureStart_ + params_.window;

    for (unsigned j = 0; j < params_.jobs; ++j)
        jobLoop(j);
}

FioResult
FioRunner::collect()
{
    stop_ = true;

    FioResult r;
    r.completed = completed_;
    r.iops = double(lat_.count()) / ticksToSec(params_.window);
    r.avgUs = lat_.meanUs();
    r.p99Us = lat_.p99Us();
    r.p999Us = lat_.p999Us();
    return r;
}

FioResult
FioRunner::run()
{
    start();
    sim_.run(doneAt());
    return collect();
}

void
FioRunner::jobLoop(unsigned job)
{
    if (stop_ || curTick() >= measureEnd_)
        return;
    hw::CpuExecutor &cpu = guest_.cpu(job);
    // fio sync engine: issue, wait, repeat. The submission costs a
    // syscall plus the driver path.
    cpu.run(usToTicks(1.2), [this, job] {
        if (stop_ || curTick() >= measureEnd_)
            return;
        std::uint64_t max_lba =
            params_.volumeSectors -
            params_.blockBytes / 512;
        std::uint64_t lba =
            rng().uniformInt(0, max_lba) & ~std::uint64_t(7);
        Tick issued = curTick();
        auto done = [this, job, issued](std::uint8_t status,
                                        Addr) {
            if (status == virtio::VIRTIO_BLK_S_OK &&
                issued >= measureStart_ &&
                curTick() < measureEnd_ + msToTicks(20)) {
                if (issued >= measureStart_ &&
                    issued < measureEnd_)
                    lat_.record(curTick() - issued);
            }
            ++completed_;
            jobLoop(job);
        };
        bool ok;
        if (params_.write) {
            ok = guest_.blk->write(lba, params_.blockBytes, nullptr,
                                   guest_.cpu(job), done);
        } else {
            ok = guest_.blk->read(lba, params_.blockBytes,
                                  guest_.cpu(job), done);
        }
        if (!ok) {
            // Ring busy: retry shortly.
            scheduleIn(new OneShotEvent([this, job] { jobLoop(job); },
                                        "fio.retry"),
                       usToTicks(10));
        }
    });
}

} // namespace workloads
} // namespace bmhive

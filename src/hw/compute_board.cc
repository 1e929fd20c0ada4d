#include "hw/compute_board.hh"

#include <utility>

#include "base/logging.hh"

namespace bmhive {
namespace hw {

ComputeBoard::ComputeBoard(Simulation &sim, std::string name,
                           const CpuModel &cpu, Bytes mem_size,
                           Tick pci_access_latency)
    : SimObject(sim, std::move(name)), cpu_(cpu),
      mem_(this->name() + ".mem", mem_size),
      bus_(sim, this->name() + ".pci", pci_access_latency),
      firmware_{"factory-1.0", 0x1000,
                FirmwareImage::sign(0x1000, 0xa11baba)}
{
    threads_.reserve(cpu.threads);
    for (unsigned i = 0; i < cpu.threads; ++i) {
        threads_.push_back(std::make_unique<CpuExecutor>(
            sim, this->name() + ".t" + std::to_string(i),
            cpu.singleThreadFactor));
    }
}

CpuExecutor &
ComputeBoard::thread(unsigned i)
{
    panic_if(i >= threads_.size(), name(), ": bad thread ", i);
    return *threads_[i];
}

void
ComputeBoard::powerOff()
{
    power_ = BoardPower::Off;
}

bool
ComputeBoard::updateFirmware(const FirmwareImage &fw,
                             std::uint64_t provider_key)
{
    if (!fw.verify(provider_key)) {
        warn(name(), ": rejected unsigned firmware '", fw.version,
             "'");
        return false;
    }
    firmware_ = fw;
    return true;
}

BaseBoard::BaseBoard(Simulation &sim, std::string name,
                     const CpuModel &cpu, Bytes mem_size,
                     Tick pci_access_latency)
    : SimObject(sim, std::move(name)), cpu_(cpu),
      mem_(this->name() + ".mem", mem_size),
      bus_(sim, this->name() + ".pci", pci_access_latency)
{
    cores_.reserve(cpu.threads);
    for (unsigned i = 0; i < cpu.threads; ++i) {
        cores_.push_back(std::make_unique<CpuExecutor>(
            sim, this->name() + ".c" + std::to_string(i),
            cpu.singleThreadFactor));
    }
}

CpuExecutor &
BaseBoard::core(unsigned i)
{
    panic_if(i >= cores_.size(), name(), ": bad core ", i);
    return *cores_[i];
}

} // namespace hw
} // namespace bmhive

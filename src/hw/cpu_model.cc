#include "hw/cpu_model.hh"

namespace bmhive {
namespace hw {

CpuModel
CpuCatalog::baseBoardE5()
{
    return {"Xeon E5 (base board)", 2.2, 16, 16, 0.95, 45};
}

CpuModel
CpuCatalog::xeonE5_2682v4()
{
    return {"Xeon E5-2682 v4", 2.5, 16, 32, 1.00, 120};
}

CpuModel
CpuCatalog::xeonE3_1240v6()
{
    // 31% faster single-thread than E5-2682 v4 (paper section 4.2).
    return {"Xeon E3-1240 v6", 3.7, 4, 8, 1.31, 72};
}

CpuModel
CpuCatalog::corei7_7700k()
{
    return {"Core i7-7700K", 4.2, 4, 8, 1.45, 91};
}

CpuModel
CpuCatalog::atomC3850()
{
    return {"Atom C3850", 2.1, 12, 12, 0.45, 25};
}

} // namespace hw
} // namespace bmhive

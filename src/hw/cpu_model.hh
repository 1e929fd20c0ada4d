/**
 * @file
 * CPU SKU catalog. The paper's Table 3 lists the processors used
 * by bare-metal instances (Xeon E5-2682 v4, E3-1240 v6, Core
 * i7-7700K, ...); section 1 quotes CPU Mark single-thread ratios
 * (e.g. Core i7-8086K = 1.6x Xeon E5-2699 v4, E3-1240 v6 = 1.31x
 * E5-2682 v4). Relative single-thread performance and TDP feed the
 * application benchmarks and the section 3.5 cost model.
 */

#ifndef BMHIVE_HW_CPU_MODEL_HH
#define BMHIVE_HW_CPU_MODEL_HH

#include <string>

#include "base/units.hh"

namespace bmhive {
namespace hw {

struct CpuModel
{
    std::string model;
    double baseGhz = 0.0;
    unsigned cores = 0;
    unsigned threads = 0; ///< hardware threads (HT)
    /** Single-thread performance relative to Xeon E5-2682 v4. */
    double singleThreadFactor = 1.0;
    double tdpWatts = 0.0;
};

/** The SKUs appearing in the paper. */
struct CpuCatalog
{
    /** Base-board CPU: 16-core E5 (paper section 3.3). */
    static CpuModel baseBoardE5();
    /** Xeon E5-2682 v4: the evaluated instance (section 4.1). */
    static CpuModel xeonE5_2682v4();
    /** Xeon E3-1240 v6: +31% single-thread (section 4.2). */
    static CpuModel xeonE3_1240v6();
    /** Core i7-7700K: high single-thread desktop part. */
    static CpuModel corei7_7700k();
    /** Intel Atom C3850-class low-power board. */
    static CpuModel atomC3850();
};

} // namespace hw
} // namespace bmhive

#endif // BMHIVE_HW_CPU_MODEL_HH

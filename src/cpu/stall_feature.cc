/**
 * @file
 * Implementation of stalling-feature helpers.
 */

#include "cpu/stall_feature.hh"

#include "util/logging.hh"

namespace uatm {

const char *
stallFeatureName(StallFeature feature)
{
    switch (feature) {
      case StallFeature::FS:
        return "FS";
      case StallFeature::BL:
        return "BL";
      case StallFeature::BNL1:
        return "BNL1";
      case StallFeature::BNL2:
        return "BNL2";
      case StallFeature::BNL3:
        return "BNL3";
      case StallFeature::NB:
        return "NB";
    }
    panic("unknown StallFeature");
}

PhiBounds
phiBounds(StallFeature feature, double line_over_bus)
{
    UATM_ASSERT(line_over_bus >= 1.0,
                "L/D must be at least one, got ", line_over_bus);
    switch (feature) {
      case StallFeature::FS:
        return PhiBounds{line_over_bus, line_over_bus};
      case StallFeature::BL:
      case StallFeature::BNL1:
      case StallFeature::BNL2:
      case StallFeature::BNL3:
        return PhiBounds{1.0, line_over_bus};
      case StallFeature::NB:
        return PhiBounds{0.0, line_over_bus};
    }
    panic("unknown StallFeature");
}

} // namespace uatm

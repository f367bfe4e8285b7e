#include "config/system_config.hh"

namespace bctrl {

const char *
safetyModelName(SafetyModel model)
{
    switch (model) {
      case SafetyModel::atsOnlyIommu:
        return "ATS-only IOMMU";
      case SafetyModel::fullIommu:
        return "Full IOMMU";
      case SafetyModel::capiLike:
        return "CAPI-like";
      case SafetyModel::borderControlNoBcc:
        return "Border Control-noBCC";
      case SafetyModel::borderControlBcc:
        return "Border Control-BCC";
    }
    return "?";
}

const char *
safetyModelToken(SafetyModel model)
{
    switch (model) {
      case SafetyModel::atsOnlyIommu:
        return "ats-only";
      case SafetyModel::fullIommu:
        return "full-iommu";
      case SafetyModel::capiLike:
        return "capi";
      case SafetyModel::borderControlNoBcc:
        return "bc-nobcc";
      case SafetyModel::borderControlBcc:
        return "bc-bcc";
    }
    return "?";
}

bool
parseSafetyModel(std::string_view token, SafetyModel &out)
{
    for (SafetyModel model : allSafetyModels) {
        if (token == safetyModelToken(model)) {
            out = model;
            return true;
        }
    }
    return false;
}

const char *
gpuProfileName(GpuProfile profile)
{
    switch (profile) {
      case GpuProfile::highlyThreaded:
        return "highly threaded";
      case GpuProfile::moderatelyThreaded:
        return "moderately threaded";
    }
    return "?";
}

SafetyProperties
safetyProperties(SafetyModel model)
{
    switch (model) {
      case SafetyModel::atsOnlyIommu:
        return SafetyProperties{false, true, true, true, false, true};
      case SafetyModel::fullIommu:
        return SafetyProperties{true, false, false, false, false, false};
      case SafetyModel::capiLike:
        // The L2 exists but on the trusted side of the border.
        return SafetyProperties{true, false, false, false, false, false};
      case SafetyModel::borderControlNoBcc:
        return SafetyProperties{true, true, true, true, false, true};
      case SafetyModel::borderControlBcc:
        return SafetyProperties{true, true, true, true, true, true};
    }
    return SafetyProperties{};
}

} // namespace bctrl

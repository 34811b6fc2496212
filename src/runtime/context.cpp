#include "runtime/context.hpp"

namespace cyclops::runtime {

Context::Context(util::ThreadPool& pool, obs::Registry& registry,
                 std::uint64_t seed)
    : pool_(&pool),
      registry_(&registry),
      clock_(std::make_unique<util::SimClock>()),
      base_(seed),
      seed_(seed) {}

Context::Context(const Options& options)
    : owned_pool_(std::make_unique<util::ThreadPool>(options.threads)),
      owned_registry_(std::make_unique<obs::Registry>()),
      pool_(owned_pool_.get()),
      registry_(owned_registry_.get()),
      clock_(std::make_unique<util::SimClock>()),
      base_(options.seed),
      seed_(options.seed) {}

Context Context::isolated(const Options& options) { return Context(options); }

}  // namespace cyclops::runtime

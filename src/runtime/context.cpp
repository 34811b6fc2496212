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
    : pool_(nullptr),
      registry_(nullptr),
      lazy_(true),
      lazy_threads_(options.threads),
      clock_(std::make_unique<util::SimClock>()),
      base_(options.seed),
      seed_(options.seed) {}

util::ThreadPool& Context::materialize_pool() const noexcept {
  owned_pool_ = std::make_unique<util::ThreadPool>(lazy_threads_);
  pool_ = owned_pool_.get();
  return *pool_;
}

obs::Registry& Context::materialize_registry() const noexcept {
  owned_registry_ = std::make_unique<obs::Registry>();
  registry_ = owned_registry_.get();
  return *registry_;
}

Context Context::isolated(const Options& options) { return Context(options); }

Context& Context::default_ctx() {
  static Context ctx(util::ThreadPool::global(), obs::Registry::global());
  return ctx;
}

}  // namespace cyclops::runtime

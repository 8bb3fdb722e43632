#include "colza/backend.hpp"

#include <map>
#include <stdexcept>

namespace colza {

namespace detail {
// Defined in catalyst_backend.cpp. Referencing it here forces the linker to
// pull that object file out of the static archive, so the built-in pipeline
// types are registered even in binaries that never name them directly.
void register_builtins();
}  // namespace detail

namespace {
std::map<std::string, BackendFactory>& registry() {
  static std::map<std::string, BackendFactory> r;
  return r;
}

void ensure_builtins() {
  static bool done = false;
  if (!done) {
    done = true;  // set first: register_builtins() re-enters register_type
    detail::register_builtins();
  }
}
}  // namespace

void BackendRegistry::register_type(const std::string& type,
                                    BackendFactory factory) {
  registry()[type] = std::move(factory);
}

bool BackendRegistry::has(const std::string& type) {
  ensure_builtins();
  return registry().count(type) != 0;
}

Expected<std::unique_ptr<Backend>> BackendRegistry::create(
    const std::string& type, Backend::Context ctx) {
  ensure_builtins();
  auto it = registry().find(type);
  if (it == registry().end())
    return Status::NotFound("no pipeline type '" + type +
                            "' in the registry");
  try {
    return it->second(std::move(ctx));
  } catch (const std::invalid_argument& e) {
    return Status::InvalidArgument(e.what());
  }
}

std::vector<std::string> BackendRegistry::types() {
  ensure_builtins();
  std::vector<std::string> out;
  for (const auto& [name, f] : registry()) out.push_back(name);
  return out;
}

}  // namespace colza

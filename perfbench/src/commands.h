// Subcommands of the benchmark helper (see main.cpp for the usage text).
// Each prints one JSON object on stdout and returns the exit code.

#pragma once

#include <string>
#include <vector>

#include "src/util/args.h"

namespace vqbench {

int cmd_prepare(const vq::ArgParser& args);
int cmd_compose(const vq::ArgParser& args);
int cmd_run(const vq::ArgParser& args, const std::vector<std::string>& argv);
int cmd_serve(const vq::ArgParser& args, const std::vector<std::string>& argv);

/// Required string option; throws std::invalid_argument when absent.
[[nodiscard]] std::string required(const vq::ArgParser& args,
                                   const char* name);

}  // namespace vqbench

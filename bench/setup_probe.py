"""Cold-start probe for ``setup_s``: import, parse a config, build it.

Usage: ``python3 bench/setup_probe.py [COMMAND CONFIG]``.  Prints
``ready`` once ``ExperimentConfig`` and its ``FrequencyGrid`` exist, or,
with no arguments, once the package is imported; the parent times
spawn-to-ready, so interpreter teardown is not counted.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from viscowave import cli  # noqa: E402


def main() -> None:
    if len(sys.argv) > 1:
        command, config_path = sys.argv[1], sys.argv[2]
        opts = cli.merged_options(cli.parse_config_file(config_path), command)
        cli.build_config(opts, command)
    print("ready", flush=True)


if __name__ == "__main__":
    main()

"""Run one nhspec CLI command with the layer tracer installed.

    python perfbench/tracecli.py STATE_FILE <nhspec arguments>

Writes the tracer state to STATE_FILE as JSON and exits with the code
the command returned.
"""

import json
import sys
from pathlib import Path

import layers


def main():
    state_file = Path(sys.argv[1])
    import nhspec.cli

    tracer = layers.Tracer()
    tracer.install()
    try:
        return nhspec.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        state_file.write_text(json.dumps(tracer.state()))


if __name__ == "__main__":
    sys.exit(main())

"""Write the golden acceptance reports that tests/test_acceptance.py compares
each criterion's report with:

    PYTHONPATH=src python tests/golden/regenerate.py

Each report goes to acceptance_NN.txt beside this script.  No test runs this;
run it only when a report is meant to change, and say which file changed and
why.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from test_acceptance import _PRODUCERS, golden_path  # noqa: E402

if __name__ == "__main__":
    for key in sorted(_PRODUCERS):
        golden_path(key).write_bytes(_PRODUCERS[key]().encode("utf-8"))
        print(golden_path(key))

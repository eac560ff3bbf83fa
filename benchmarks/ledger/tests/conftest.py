"""Make the ledger's modules and the program importable for the tests."""

import os
import sys

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(LEDGER))

for path in (os.path.join(ROOT, "src"), LEDGER):
    if path not in sys.path:
        sys.path.insert(0, path)

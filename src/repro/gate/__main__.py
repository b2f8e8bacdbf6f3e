"""``python -m repro.gate`` — see :mod:`repro.gate.table`."""

import sys

from .table import main

sys.exit(main())

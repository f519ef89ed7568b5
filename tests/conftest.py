import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from urnfield.reinforcement import ReinforcementSeq

# property tests draw the same examples on every run and keep no example
# database
settings.register_profile("urnfield", derandomize=True, deadline=None, database=None, max_examples=40)
settings.load_profile("urnfield")
# hypothesis still caches the constants it reads from local modules; keep
# that cache out of the working tree
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "urnfield-hypothesis")


@pytest.fixture
def nan_weights_from_300(monkeypatch):
    """Make every sequence's log W(n) NaN from n = 300 on: a urn's first
    table (n <= 256) passes, any table that reaches 300 does not."""
    log_values = ReinforcementSeq.log_values

    def patched(self, ns):
        return np.where(np.asarray(ns) >= 300, np.nan, log_values(self, ns))

    monkeypatch.setattr(ReinforcementSeq, "log_values", patched)

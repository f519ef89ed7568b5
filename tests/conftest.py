import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# property tests draw the same examples on every run and keep no example
# database
settings.register_profile("urnfield", derandomize=True, deadline=None, database=None, max_examples=40)
settings.load_profile("urnfield")
# hypothesis still caches the constants it reads from local modules; keep
# that cache out of the working tree
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "urnfield-hypothesis")

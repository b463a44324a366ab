"""Checker modules. Importing this package registers every checker."""

from . import banned_token      # noqa: F401
from . import raw_accumulate    # noqa: F401
from . import rng_stream        # noqa: F401
from . import static_state      # noqa: F401

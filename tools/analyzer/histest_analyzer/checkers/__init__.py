"""Checker modules. Importing this package registers every checker."""

from . import arena_escape      # noqa: F401
from . import clock_discipline  # noqa: F401
from . import env_discipline    # noqa: F401
from . import lock_discipline   # noqa: F401
from . import obs_name_discipline  # noqa: F401
from . import raw_accumulate    # noqa: F401
from . import rng_stream        # noqa: F401
from . import simd_discipline   # noqa: F401
from . import static_state      # noqa: F401
from . import status_discipline  # noqa: F401
from . import view_escape       # noqa: F401

"""Label-flip-driven re-initialization for online-adapting classifiers.

The library tracks how often (and how confidently) an adapting model changes
its own predictions between consecutive update steps, smooths that trajectory,
and triggers weight re-initialization when the trajectory rises sharply off
its running minimum. Restoration blends the frozen source weights with the
adapted weights. A harness plus CLI evaluate the policy against no-reset and
clock-based baselines on synthetic drifting streams.

Every name in a library module's ``__all__`` is importable from here.
"""

from .config import *
from .flip_signal import *
from .harness import *
from .learner import *
from .policy import *
from .stream import *

__version__ = "0.1.0"

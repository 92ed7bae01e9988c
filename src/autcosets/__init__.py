"""Block-stabilized coset products on automorphisms of the free group of
countable rank, and their exact matrix representations over finite groups.

The package has three layers: reduced words and verified automorphisms
(``words``, ``automorphisms``), the coset/class/tuple products with their
structural witnesses (``cosets``), and the exact averaged-action operators
over finite groups (``groups``, ``ratmat``, ``repengine``).  ``cli`` exposes
everything as the ``autcosets`` command.

Each module lists its own public names in its ``__all__``; the package's
public names are the union of those lists, re-exported here.
"""

from .words import *
from .automorphisms import *
from .cosets import *
from .errors import *
from .groups import *
from .ratmat import *
from .repengine import *
from .verify import *

__version__ = "0.1.0"

# importing a submodule binds it in this namespace, so each module is a name here
__all__ = [
    *words.__all__,
    *automorphisms.__all__,
    *cosets.__all__,
    *errors.__all__,
    *groups.__all__,
    *ratmat.__all__,
    *repengine.__all__,
    *verify.__all__,
]

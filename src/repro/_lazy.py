"""Lazy package exports (PEP 562 module ``__getattr__``).

Each package ``__init__`` lists its public names per submodule instead
of importing them: the first access to a name imports only the
submodule that defines it, so ``from repro.mapping import hyde_map``
loads ``mapping.hyde`` and nothing else the package holds.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, Sequence


def lazy_exports(
    package: str,
    namespace: Dict[str, object],
    table: Dict[str, Sequence[str]],
) -> Callable[[str], object]:
    """The ``__getattr__`` of ``package`` for ``table``.

    ``table`` maps a submodule (relative to ``package``) to the names it
    exports.  A resolved name is stored in ``namespace`` (the package's
    globals), so later lookups never reach the hook.

    A name equal to a submodule's name cannot be lazy: importing that
    submodule binds the package attribute to the module, which then
    hides the export.  Packages import such names eagerly.
    """
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(f".{module}", package), name)
        namespace[name] = value
        return value

    return __getattr__

"""``repro.__version__``, resolved on first access.

The installed distribution's metadata names the version, with a
``+src`` marker for source-tree use (see
:mod:`repro.obs.ledger.provenance`).  Looking it up scans
``importlib.metadata``, a cost ``import repro`` leaves to the first
reader of ``__version__``.
"""

from repro.obs.ledger.provenance import package_version

__version__ = package_version()

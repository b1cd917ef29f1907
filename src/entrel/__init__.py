"""Joint entity classification and relation extraction toolkit.

CNN sentence encoders feed a three-step score sequence (entity type,
relation, entity type) into a globally normalized linear-chain CRF. The
locally normalized softmax baseline is the same chain without transitions,
each position normalized over its task's label slice.
"""

__version__ = "0.1.0"

from entrel.corpus import LabelSpace

__all__ = ["LabelSpace", "__version__"]

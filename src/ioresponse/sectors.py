"""Registry of the 56 WIOD 2016 industries (2-digit ISIC rev. 4).

Maps sector codes to a coarse group label.  Codes outside the registry
(synthetic test economies, custom aggregations) fall in the group
``"Other"``.
"""

from __future__ import annotations

# code -> group
WIOD_SECTORS: dict[str, str] = {
    "A01": "Agriculture",
    "A02": "Agriculture",
    "A03": "Agriculture",
    "B": "Mining",
    "C10-C12": "Manufacturing",
    "C13-C15": "Manufacturing",
    "C16": "Manufacturing",
    "C17": "Manufacturing",
    "C18": "Manufacturing",
    "C19": "Manufacturing",
    "C20": "Manufacturing",
    "C21": "Manufacturing",
    "C22": "Manufacturing",
    "C23": "Manufacturing",
    "C24": "Manufacturing",
    "C25": "Manufacturing",
    "C26": "Manufacturing",
    "C27": "Manufacturing",
    "C28": "Manufacturing",
    "C29": "Manufacturing",
    "C30": "Manufacturing",
    "C31-32": "Manufacturing",
    "C33": "Manufacturing",
    "D35": "Electricity & Water",
    "E36": "Electricity & Water",
    "E37-E39": "Electricity & Water",
    "F": "Construction",
    "G45": "Trade",
    "G46": "Trade",
    "G47": "Trade",
    "H49": "Transport",
    "H50": "Transport",
    "H51": "Transport",
    "H52": "Transport",
    "H53": "Transport",
    "I": "Accommodation",
    "J58": "Inform. & Comm.",
    "J59-J60": "Inform. & Comm.",
    "J61": "Inform. & Comm.",
    "J62-J63": "Inform. & Comm.",
    "K64": "Finance",
    "K65": "Finance",
    "K66": "Finance",
    "L68": "Other",
    "M69-M70": "Other",
    "M71": "Other",
    "M72": "Research",
    "M73": "Research",
    "M74-M75": "Research",
    "N": "Administration",
    "O84": "Administration",
    "P85": "Other",
    "Q": "Other",
    "R-S": "Other",
    "T": "Other",
    "U": "Other",
}

GROUP_VOCABULARY = frozenset(WIOD_SECTORS.values())


def sector_metadata(code: str) -> str:
    """Return the group of a sector code."""
    return WIOD_SECTORS.get(code, "Other")

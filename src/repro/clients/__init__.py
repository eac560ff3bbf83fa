"""Client disciplines and the paper's scenario scripts."""

from .._lazy import lazy_exports

_EXPORTS = {
    "base": (
        "ALL_DISCIPLINES", "ALOHA", "Discipline", "ETHERNET", "FIXED",
        "by_name"),
    "scripts": (
        "format_window", "producer_script", "reader_script",
        "submit_script"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

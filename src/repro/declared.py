"""One declaration per config field: default, range, flag and help.

A config dataclass declares each field with :func:`option`; the range
check, the membership check, the CLI flag, its ``--help`` line and the
error text a bad value produces are all read off that one declaration:

- :func:`validate` — first thing in ``__post_init__``;
- :func:`add_flags` — one ``add_argument`` per field that names a flag;
- :func:`overrides_from` — ``{field: value}`` for the flags a user set.

Only what one field says about itself lives here: rules relating two
fields stay in ``__post_init__``, flag implications in :mod:`repro.cli`.
"""

from __future__ import annotations

import dataclasses


def option(default, *, within=None, one_of=None, flag=None, help=None,
           **argparse_kwargs):
    """A dataclass field that states its own range, flag and help.

    ``within`` is an interval string — ``"[0, 1]"``, ``"(0, 1]"``,
    ``"[1, inf)"`` — and ``one_of`` a tuple of admissible values.
    ``flag`` is the CLI spelling (``"--p-drop"``); ``argparse_kwargs``
    (``dest=``, ``nargs=``, ``metavar=``, ``action=``, a wider CLI-only
    ``choices=``…) pass through to ``add_argument`` unchanged.
    """
    return dataclasses.field(default=default, metadata={
        "within": within, "one_of": one_of, "flag": flag, "help": help,
        "argparse": argparse_kwargs,
    })


def _inside(value, interval: str) -> bool:
    low, high = (float(edge) for edge in interval[1:-1].split(","))
    try:
        return (
            (value >= low if interval[0] == "[" else value > low)
            and (value <= high if interval[-1] == "]" else value < high)
        )
    except TypeError:  # not a number at all
        return False


def validate(config) -> None:
    """Enforce every field's declared ``one_of`` / ``within``."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        one_of = field.metadata.get("one_of")
        if one_of is not None and value not in one_of:
            raise ValueError(
                f"unknown {field.name} {value!r}; expected one of {one_of}"
            )
        within = field.metadata.get("within")
        if within is None or (value is None and "None" in str(field.type)):
            continue
        if not _inside(value, within):
            raise ValueError(
                f"{field.name} must be in {within}, got {value!r}"
            )


def _flagged(config_class, skip=()):
    """(field, dest) of every field that declares a flag."""
    for field in dataclasses.fields(config_class):
        flag = field.metadata.get("flag")
        if flag is None or field.name in skip:
            continue
        dest = field.metadata["argparse"].get(
            "dest", flag.lstrip("-").replace("-", "_")
        )
        yield field, dest


def add_flags(parser, config_class, skip=()) -> None:
    """One ``add_argument`` per declared flag of ``config_class``.

    Every flag defaults to ``None`` so an unset one leaves the preset
    alone; ``choices`` default to the field's ``one_of`` and ``type`` to
    the type of an int/float default.
    """
    for field, _ in _flagged(config_class, skip):
        meta = field.metadata
        kwargs = {"default": None, "help": meta["help"], **meta["argparse"]}
        if meta["one_of"] is not None:
            kwargs.setdefault("choices", meta["one_of"])
        if type(field.default) in (int, float) and "action" not in kwargs:
            kwargs.setdefault("type", type(field.default))
        parser.add_argument(meta["flag"], **kwargs)


def overrides_from(args, config_class) -> dict:
    """``{field: value}`` for every declared flag the user set."""
    return {
        field.name: getattr(args, dest)
        for field, dest in _flagged(config_class)
        if getattr(args, dest, None) is not None
    }

"""Functions of a known reach, for the census's own test
(``tests/test_census.py``): :func:`main` calls some of them."""

from __future__ import annotations


def called():
    return [n for n in range(3)]  # the comprehension is left out of the fold


def not_called():
    return "never"


def allowlisted():
    return "reached, so its allowlist entry is stale"


def outer():
    def inner_called():
        return "inner"

    def inner_not_called():
        return "never"

    return inner_called()


class Box:
    def method(self):
        return (lambda: self)()

    def unused_method(self):
        return self

    def __repr__(self):
        return "Box()"


def main():
    called()
    allowlisted()
    outer()
    Box().method()

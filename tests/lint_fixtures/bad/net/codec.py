"""Fixture codec: Pong is a wire message but never registered (P205)."""

from gcs.messages import Mutable, Ping, Pong


def register(cls, tag=None, layout=None):
    return cls


register(Ping)
register(Mutable)
# Pong is missing: P205

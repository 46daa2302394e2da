"""Fixture codec: every wire message is registered (a packed layout is
part of the same call)."""

from gcs.messages import Ping


def register(cls, tag=None, layout=None):
    return cls


register(Ping, 14, "seq:u32")

"""Draining a process-backed transport must stop every slot loop.

``drain()`` stops slot loops by cancelling them. A cancellation that
lands in the same event-loop tick as a worker finishing its HELLO must
still end the loop: ``asyncio.wait_for`` before Python 3.12 returned
the finished connect instead, the loop went on to wait for an
assignment that never comes, and ``drain()`` waited on it forever.
"""

import asyncio

import pytest

from repro.service import CheckService, ServiceConfig, create_transport


@pytest.mark.parametrize("kind", ["mp", "socket"])
def test_cancel_as_hello_lands_still_ends_the_slot_loop(small_corpus,
                                                         kind):
    service = CheckService(small_corpus,
                           config=ServiceConfig(transport=kind, jobs=1))
    # never started: no processes, no sockets, nothing to drain
    transport = create_transport(service, kind)
    slot = transport.slots[0]

    async def main():
        transport._pending = asyncio.Queue()
        hello = asyncio.get_running_loop().create_future()

        async def connect(slot):
            await hello

        transport._connect = connect
        loop_task = asyncio.ensure_future(transport._slot_loop(slot))
        await asyncio.sleep(0)   # the slot loop parks in its HELLO wait
        hello.set_result(None)   # the worker registers ...
        loop_task.cancel()       # ... in the tick drain() cancels
        done, _ = await asyncio.wait({loop_task}, timeout=2.0)
        if not done:
            loop_task.cancel()
            await asyncio.wait({loop_task})
        return bool(done), loop_task.cancelled()

    ended, cancelled = asyncio.run(main())
    assert ended, "the slot loop survived its cancellation"
    assert cancelled

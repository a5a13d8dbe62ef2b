"""REP004 fixture: trace payloads that hash differently across runs."""


def bad_set_payload(tracer, members):
    tracer.emit("memb_view", members=set(members))  # BAD REP004


def bad_set_literal(tracer, a, b):
    tracer.emit("memb_view", members={a, b})  # BAD REP004


def bad_identity(tracer, obj):
    tracer.emit("server_start", node=id(obj))  # BAD REP004


def bad_marker_set(tracer, now, dropped: set):
    tracer.emit("memb_excluded", time=now, members=dropped)  # BAD REP004


def good_sorted_payload(tracer, members):
    tracer.emit("memb_view", members=sorted(members))  # GOOD


def good_literals(tracer):
    tracer.emit("server_start", node_id=3, name="n3")  # GOOD

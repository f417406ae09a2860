import json, math, sys
fresh, frozen = (json.load(open(path)) for path in sys.argv[1:])
assert list(fresh) == list(frozen), (list(fresh), list(frozen))
for key, old in frozen.items():
    if key in ("asyvar_iv", "asyvar_iv_ps"):
        assert math.isclose(fresh[key], old, rel_tol=1e-12, abs_tol=0.0), key
    else:
        assert fresh[key] == old, key

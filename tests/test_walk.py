"""The order and the sides of every point each check walks.

The golden `verify all` digests pin only each report's status and grid
size.  Here a sha256 of every point's params and rendered sides, in walk
order, pins the walk itself, for every check and both flagged variants,
at the default grid and at the benchmark's shifted one.  The replay test
checks that a point found in a full grid is found again, with the same
sides, by the grid of its own singleton m and r and the max_n it needs,
and that nothing comes before it there that did not come before it in
the full grid.
"""

import hashlib
import json

import pytest

from whitney.qformat import rat_str
from whitney.registry import REGISTRY, _gate, _render


def _routes():
    for name in sorted(REGISTRY):
        yield name, "evaluate"
        if REGISTRY[name].variant is not None:
            yield name, "variant"


ROUTES = list(_routes())


def _key(params, lhs, rhs):
    return json.dumps([params, _render(lhs), _render(rhs)], default=rat_str)


def _walk(name, route, overrides):
    check = REGISTRY[name]
    return getattr(check, route)(_gate(check, overrides))


GRIDS = {"default": {}, "shifted": {"m": (4, 1), "r": (7, 0)}}

# sha256 of the "\n"-joined point keys, per route and grid
ORDER_GOLDEN = {
    "az-recurrences-W1 evaluate default":
        "67b9eea32effaf420e11120e6014c87d57d338b7d2909391a79d9ea2869faf22",
    "az-recurrences-W1 evaluate shifted":
        "b1df08e6a6eefa0c2218564cb72e728e9e10f5b9ed4f151d52afce7b4e98c4e7",
    "az-recurrences-W2 evaluate default":
        "74656e583cfea27e1495777a9d33fa4d2e6ae4e6e597b541cfb68b74ac6b1127",
    "az-recurrences-W2 evaluate shifted":
        "132171fc0420b3afb7acde087c2316477d100d04bfff2c6ae84f20b252b24934",
    "bernoulli-to-dowling evaluate default":
        "6cccb267caebf4e8db8884a9f3334bec7536aca61a407f434dd831b8956ee429",
    "bernoulli-to-dowling evaluate shifted":
        "beea2cc8e257e854453889e1d6dad4a22f9b8662a876495d74a61a5a63a84174",
    "binomial-recurrences evaluate default":
        "06203e7a266040d088d8cc1beb37cfbe7665342c669642e74efa6c574753522f",
    "binomial-recurrences evaluate shifted":
        "c58e002e118ac10ce75b32c687c8f612998a969bf0ba11f546e9fc4c54f61d88",
    "delta-ops evaluate default":
        "cb7f6424b183d0ace9454414c1d318ebd60e1113d641f8d07513784e78a01db2",
    "delta-ops evaluate shifted":
        "136df08eb8c5083e06df8afd610c93d483474a5ba9a3b0813a17ecf6166ac276",
    "determinantal evaluate default":
        "c2dcac6bb6ffc8a83028de04cd682af8620eb892f798188f29ac4c81febd06eb",
    "determinantal evaluate shifted":
        "2d54c5ea2169e78d349300442a43e09b15564aeeffa9fb2a6a557336d516fa38",
    "dowling-recurrence evaluate default":
        "74ad2fb70a34d1591dfa455538d3c825cc3daad12d32b2dd339ba1f67ff5dae7",
    "dowling-recurrence evaluate shifted":
        "d7a355003e497a88f2a485c515461c1f9747b1005755bb989b511368418b03f5",
    "dowling-shift evaluate default":
        "d36c796fee821ba36062a53f6dfef6f25941a61f01741d0091edcabc8bb5b473",
    "dowling-shift evaluate shifted":
        "07fb0e63ff8972183ce0c902297da8a35bde7bfd1683160f1a199d4d7c1d0f53",
    "dowling-shift-l1 evaluate default":
        "2f216735b4d380f1c4693636325eaf8c0975e9abb77fd983f9a1a9f1a0670323",
    "dowling-shift-l1 evaluate shifted":
        "89f861f7a9f9fc39898e9ba9b292c194d11dfab7a894f417fd6d397311c8fa0e",
    "dowling-to-bernoulli evaluate default":
        "e4e66a03f43cccf2f978a9982dd775e6189f979d28ee1bc3bfff6c80dcc4cc2a",
    "dowling-to-bernoulli evaluate shifted":
        "5ccc1323b3533dcdbb5f9b693d248be94653babd994318dbb7e804c57cafeaf4",
    "dowling-to-bernoulli variant default":
        "e4e66a03f43cccf2f978a9982dd775e6189f979d28ee1bc3bfff6c80dcc4cc2a",
    "dowling-to-bernoulli variant shifted":
        "5ccc1323b3533dcdbb5f9b693d248be94653babd994318dbb7e804c57cafeaf4",
    "dowling-to-euler evaluate default":
        "3f87ecc1370b88bf304c3039496dab76ef160ac7af5e97d44fd0416e2b12bcaa",
    "dowling-to-euler evaluate shifted":
        "2d54c5ea2169e78d349300442a43e09b15564aeeffa9fb2a6a557336d516fa38",
    "dowling-to-euler variant default":
        "3f87ecc1370b88bf304c3039496dab76ef160ac7af5e97d44fd0416e2b12bcaa",
    "dowling-to-euler variant shifted":
        "2d54c5ea2169e78d349300442a43e09b15564aeeffa9fb2a6a557336d516fa38",
    "dowling-umbral-inverse evaluate default":
        "b306e213208b5f9bf52a039f048dcdabdf7ff1f76b474ab97db702400b7612c8",
    "dowling-umbral-inverse evaluate shifted":
        "d0a25d4ebcebcf9828a0e60b32bd30fa32912087f6c1925f2019b424c47b51ff",
    "dowlstir evaluate default":
        "3f87ecc1370b88bf304c3039496dab76ef160ac7af5e97d44fd0416e2b12bcaa",
    "dowlstir evaluate shifted":
        "2d54c5ea2169e78d349300442a43e09b15564aeeffa9fb2a6a557336d516fa38",
    "egf-dowling evaluate default":
        "f783a8766e16623e2845702f2c1831e663e90b6653e99484f716c1cb2e51c33f",
    "egf-dowling evaluate shifted":
        "f449ab44fc01c660d76b6b328aa2f37b239a03bd8777a04d192862a1a33cf419",
    "egf-whitney2 evaluate default":
        "4d98b5d9aeb5a0f3a68e47169bb0ca3c3e7aa7dafd87d7f04f2b00f4ed6f3a6a",
    "egf-whitney2 evaluate shifted":
        "c8d208c40952879fd32d63e58b9139d730c453063e22b4db833f2ed37bc794ac",
    "euler-to-dowling evaluate default":
        "3149eba3a4746cd4e68716fc27e3c58c82fe3183a4e18b45b28e3f5be693a344",
    "euler-to-dowling evaluate shifted":
        "391432fdb3c87f674159ef73dd6604d736842a55434aa5474363d24c2a0b802a",
    "inverse-relation evaluate default":
        "6915f445677d5f092f55b49d1154c23d1e08d70abc4a4343e01ed92b8cfa3ca3",
    "inverse-relation evaluate shifted":
        "14fcd253305a4926097adb3bd432e20574154b9a9ae340c224d08adc2a1d6326",
    "lemma-grammar-dowling evaluate default":
        "406fed7077d8c73f4784a84670c9424ac1148936970c757f7c7aaeccff319a60",
    "lemma-grammar-dowling evaluate shifted":
        "7ef73c6459a2c22f270b618e2bdacde446f0242c867f85a2bf92af8ec3d29a80",
    "orthogonality evaluate default":
        "8ebd17535eac689b98c9b1363809f26bc43f3950e2a89d89812fdbcb87282ab6",
    "orthogonality evaluate shifted":
        "a012a6fcaa5f5b6e9bcf0d238bed6741f56434e7f36325a73cf55ddfc5e61d15",
    "power-in-dowling evaluate default":
        "a2ec8df25b4fa2cc397f2296632c57eb4ded2debcb88c89c3f3fe3eb6a5d3121",
    "power-in-dowling evaluate shifted":
        "9d6668dae3e3067a1a34b02034677241397d5c9d12d0a6b04a67a2d56e333c5e",
    "r-shift-s evaluate default":
        "1cad40eae9ef1250b2b4a3050fbe35cb97a3c64809b248b51873b8322e90d3ac",
    "r-shift-s evaluate shifted":
        "314b3d7547ee7f58094eb1f04f5d620585cb3bc16f6a2ec6d328d01da1164785",
    "sheffer-binomial-D evaluate default":
        "0240d23c84f3f83aca17db703825fac733efe84dff3d5df7c76ed099d145f074",
    "sheffer-binomial-D evaluate shifted":
        "abb9706827209d18e1c077f0320731e879b5b0b8c318a884480c291a110db8d2",
    "spivey evaluate default":
        "74a2ccdcc4f34b30fa95b3aaec7f84c5926c8991b385258684cf0aedba9239a6",
    "spivey evaluate shifted":
        "aa2d439e401661c92f92bdfad3bcb4ce58f88da63300a9caf31e66bc8b46332a",
    "touchard-binomial evaluate default":
        "03a418f958246b4d1e22c7ce5e495d7bacf40a81df77eaec857ec393dfc46265",
    "touchard-binomial evaluate shifted":
        "f736ea92975f647edf1688d2e643635346a7c8c737c3625dbb0eca8f21546221",
    "umbral-inverse-T evaluate default":
        "0bb6188e9c2c8c91bd23415b2bdda19bf0aec0c2a1365338aff88eb545999ef5",
    "umbral-inverse-T evaluate shifted":
        "b91418342f8b50d7e74401dad1bfccf4bbf6325feaf712e68996f44c5e1f3a8c",
    "whitney-convolution evaluate default":
        "74a2ccdcc4f34b30fa95b3aaec7f84c5926c8991b385258684cf0aedba9239a6",
    "whitney-convolution evaluate shifted":
        "aa2d439e401661c92f92bdfad3bcb4ce58f88da63300a9caf31e66bc8b46332a",
    "whitney-r-shift evaluate default":
        "1cad40eae9ef1250b2b4a3050fbe35cb97a3c64809b248b51873b8322e90d3ac",
    "whitney-r-shift evaluate shifted":
        "314b3d7547ee7f58094eb1f04f5d620585cb3bc16f6a2ec6d328d01da1164785",
    "whitney-recurrence evaluate default":
        "74ad2fb70a34d1591dfa455538d3c825cc3daad12d32b2dd339ba1f67ff5dae7",
    "whitney-recurrence evaluate shifted":
        "d7a355003e497a88f2a485c515461c1f9747b1005755bb989b511368418b03f5",
}


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("name, route", ROUTES, ids=["%s-%s" % nr for nr in ROUTES])
def test_point_order_and_sides_are_pinned(name, route, grid):
    sha = hashlib.sha256()
    for point in _walk(name, route, GRIDS[grid]):
        sha.update(_key(*point).encode() + b"\n")
    assert sha.hexdigest() == ORDER_GOLDEN["%s %s %s" % (name, route, grid)]


def _singleton(check, params):
    """The overrides that replay one point: its own m and r (the grid's
    first r where the check has no r axis) and the max_n that reaches it."""
    grid = check.grid
    if params.get("identity") == "a-sequence-row":
        max_n = params["n"] + 1  # the A-sequence reads row n + 1
    else:
        max_n = params.get("n", grid["max_n"])
    return {"max_n": max_n, "m": (params["m"],), "r": (params.get("r", grid["r"][0]),)}


@pytest.mark.parametrize("name, route", ROUTES, ids=["%s-%s" % nr for nr in ROUTES])
def test_a_point_replays_under_its_singleton_grid(name, route):
    check = REGISTRY[name]
    earlier = set()
    for params, lhs, rhs in list(_walk(name, route, {})):
        at = json.dumps(params, default=rat_str)
        for again in _walk(name, route, _singleton(check, params)):
            got = json.dumps(again[0], default=rat_str)
            if got == at:
                assert _key(*again) == _key(params, lhs, rhs), (name, route, at)
                break
            assert got in earlier, (name, route, at, got)
        else:
            pytest.fail("%s %s: %s is not walked under its singleton grid" % (name, route, at))
        earlier.add(at)

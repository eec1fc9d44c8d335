"""Every task's action phrasings and prompts, pinned as literals.

The four phrasings each task's prompts use for its action space are held
here as text; every prompt that carries them (P1, P2 and its re-ask, P3
and its repair, the reflection prompt's invalid-action block and the whole
reflection prompt around it) and ``Environment.step``'s refusal are held
as one sha256 per (task, text). A change to how a spec states its actions
must leave all of them byte for byte as they are.
"""

import hashlib
import math

import pytest

from policyloop.envs import ALL_TASKS, TaskId, get_spec, make
from policyloop.loop import Strategy
from policyloop.prompts import (
    SensoryMotorWindow,
    p4_blocks,
    render_p1,
    render_p2,
    render_p3,
    render_p4,
)

from conftest import transcript_text

# task -> (action_choice_text, action_returns_text, action_invalid_text,
#          random_default_text)
PHRASINGS = {
    TaskId.CARTPOLE: (
        "either left(0) or right(1)",
        "0 for left; or 1 for right",
        "0 (left) or 1 (right)",
        "return random.randint(0, 1)",
    ),
    TaskId.CARTPOLE_STAR1: (
        "either left(1) or right(2)",
        "1 for left; or 2 for right",
        "1 (left) or 2 (right)",
        "return random.randint(1, 2)",
    ),
    TaskId.CARTPOLE_STAR2: (
        "either left(1) or right(2)",
        "1 for left; or 2 for right",
        "1 (left) or 2 (right)",
        "return random.randint(1, 2)",
    ),
    TaskId.INVERTED_PENDULUM: (
        "a continuous force value in the range [-3.0, 3.0]",
        "a continuous force value in the range [-3.0, 3.0]",
        "a number in the range [-3.0, 3.0]",
        "return random.uniform(-3.0, 3.0)",
    ),
    TaskId.ACROBOT: (
        "-1 torque(0), no torque(1) or +1 torque(2)",
        "0 for -1 torque; 1 for no torque; or 2 for +1 torque",
        "0 (-1 torque), 1 (no torque) or 2 (+1 torque)",
        "return random.randint(0, 2)",
    ),
    TaskId.PENDULUM: (
        "a continuous torque value in the range [-2.0, 2.0]",
        "a continuous torque value in the range [-2.0, 2.0]",
        "a number in the range [-2.0, 2.0]",
        "return random.uniform(-2.0, 2.0)",
    ),
    TaskId.MOUNTAIN_CAR_DISCRETE: (
        "left(0), nothing(1) or right(2)",
        "0 for left; 1 for nothing; or 2 for right",
        "0 (left), 1 (nothing) or 2 (right)",
        "return random.randint(0, 2)",
    ),
    TaskId.MOUNTAIN_CAR_CONTINUOUS: (
        "a continuous force value in the range [-1.0, 1.0]",
        "a continuous force value in the range [-1.0, 1.0]",
        "a number in the range [-1.0, 1.0]",
        "return random.uniform(-1.0, 1.0)",
    ),
}


@pytest.mark.parametrize("task", ALL_TASKS)
def test_each_task_states_its_action_phrasings(task):
    spec = get_spec(task)
    assert (
        spec.action_choice_text,
        spec.action_returns_text,
        spec.action_invalid_text,
        spec.random_default_text,
    ) == PHRASINGS[task]
    assert spec.obs_dim == len(spec.obs_names)


REPAIR_ERROR = "line 2, column 5: loops are not allowed"


def _texts(task) -> dict:
    """Every text of ``task`` that states its actions, by name."""
    spec = get_spec(task)
    window = SensoryMotorWindow(
        ("[0 0 1 0];1",), source_episode=2, episode_return=1.0, invalid_value_text="None"
    )
    current = Strategy(
        iteration_index=0,
        strategy_text="",
        rules_text=transcript_text("rules_iter0.txt"),
        program_source="",
        mean_reward=1.0,
        per_episode_returns=[1.0] * 20,
        window=window,
    )
    blocks = dict(p4_blocks(spec, current, None, None))
    return {
        "p1": render_p1(spec),
        "p2": render_p2(spec, transcript_text("strategy_iter0.txt")),
        "p2_reask": render_p2(spec, transcript_text("strategy_iter0.txt"), reask=True),
        "p3": render_p3(spec, transcript_text("rules_iter0.txt")),
        "p3_repair": render_p3(spec, transcript_text("rules_iter0.txt"), error=REPAIR_ERROR),
        "p4_invalid_block": blocks["error_feedback"],
        "p4": render_p4(spec, current),
    }


DIGESTS = {
    TaskId.CARTPOLE: {
        "p1": "a52a52b85b1caed1b5ac7bbc329fcb8cdbe417494dcb9ce1d4392b9459cc6dd9",
        "p2": "888259a7f13b55756d7de5b16fd371f1ef2955cfc8ba8fc96e4085fd493860cf",
        "p2_reask": "be7f13a0d6b52b038b8a2459998501df4c80734db6517690c4207af249054a7f",
        "p3": "89f06abf36b904151ebc90734e43cc29e3e8f5fd8aee59b5adad10c414f7b424",
        "p3_repair": "ff3d74f6f874d71e67d495ccffba8f45156006a32c481dd9977ee7913eeeec1a",
        "p4_invalid_block": "7fefe3a3e0e5881d94d3af5269478e618ba462cad3c6b3cde458561f5e62fefb",
        "p4": "f6975c79b9003ac49493bcdd073fa7304d2650c2f78d3283609445a962234ac5",
    },
    TaskId.CARTPOLE_STAR1: {
        "p1": "ac57baf7d5b4afe858cb53a7504e2a3ac0b16f89c6131d4d7fe8140c9160f5f4",
        "p2": "9c34b836c6f938992e1b169ecf2023bf74782814922b73fa2d839682d32f7afd",
        "p2_reask": "52d07554072849d2fa5232b614070dff420674f022c436c8dff4f5186f48b070",
        "p3": "0175d86ba268e04c84b586cbba4d7a94a369d95620dd47f80bd3944360a1ddb2",
        "p3_repair": "34169d668efc72830254b4c907bdff9d13a5694928c2066f16afc96ade0629e3",
        "p4_invalid_block": "c3b0f23d76c483f64c81325ac90d5553fea6da12e836b8df8280ec2fe2734b2a",
        "p4": "2d7e40a2f7366099de94300a01fc68b5f9584c5924039436104a820625bbde6d",
    },
    TaskId.CARTPOLE_STAR2: {
        "p1": "b2117d22177d9aeb39ec86feb8755d8f36f80216d96ad28790abcd185cbec3c1",
        "p2": "472a0eaece466a9970fdc100415cd838b5f37de973d767d41307d18ba1530f77",
        "p2_reask": "eb6748a0acef3f09f805fbaf5b8f3949911886e1e0035af908cb55d22cc5e36b",
        "p3": "21a2e515e5ba5a0cc7c98c8ce09cd6da9cffe52a5e40c7a96c7a556302e2208a",
        "p3_repair": "5e22debefe41079fa50ada3e764465dbf9f61c24c1d33b9a187eac942a5d5e0f",
        "p4_invalid_block": "c3b0f23d76c483f64c81325ac90d5553fea6da12e836b8df8280ec2fe2734b2a",
        "p4": "91646fda021dfcb8d86e30353660f44180d33d4f7847f7a321c091e6c7b8c9fa",
    },
    TaskId.INVERTED_PENDULUM: {
        "p1": "b732fdcda3afea867a43e5ee3ad053457acfcc3754ced0723d342f1c7188f24c",
        "p2": "d58558742ffd49516ac03455ecbd3dc971febafabe4361f60585dfaf254c5927",
        "p2_reask": "3d9b7e38cdbc204c0bcd8c3f6ee05f25d2be41da826352c079386c54a4736e98",
        "p3": "d7f325f915895f30f968e3c0a81d476815372293c39aacda90f5c1dfd2e7c664",
        "p3_repair": "8c6e58258474933cacca036d53e25ba7fa39dc7f4013054ab1a14d02ee964ea9",
        "p4_invalid_block": "45610eb244bb80e3ac525e04df09dc2f28a3727643d8ecff7f974596b55c41df",
        "p4": "766cda15ed8576e478cfdcf6921b62afcf0fdcf566290e33e2fb370654e1d9c9",
    },
    TaskId.ACROBOT: {
        "p1": "fc254497880d652da71c04a8af1d194bced28feb315d156857b0a6d1c8266af6",
        "p2": "a0ed1a0671a89c3ede356aec09bcfe1f3a0ae6465f9b68cb7dbb950909536485",
        "p2_reask": "f3eb5f83b4e44df2284ec7517c1eb927bdcf73197041668bb3ffa5f276b508a2",
        "p3": "24063928c12c6834bc8620e3002fd98cd6894ccbdfcfd89e099744198c50d6e3",
        "p3_repair": "7094ffc4c1bd09292750fcb433e9ea97525c60afd320a564520e25e05dc6922a",
        "p4_invalid_block": "c5aa4aa81c43f0d0a7991543f6adaa39f0cf4efe7c8276e2a5dc9b93602faab3",
        "p4": "a00bd470957a2d211a71fde35872996bc6ce31f16ee01026e958f8070da992b1",
    },
    TaskId.PENDULUM: {
        "p1": "beeab97d7e85fcad2e85c89731d3ac9f20d92f4cd4567365d6a489aebb265b3e",
        "p2": "a4ff5636ad57257a9be2228893d8f6466541adc33fff30d585a4f1f16604734b",
        "p2_reask": "e4c11d43c9021e19760946883db8b24eb5d08392c2a2ed9a25d0d0f9f8a4cb85",
        "p3": "6c4275b0ba55a0912d438861e6dc1d14a160fa14d8561ecdba668463feae6619",
        "p3_repair": "9671e6f0f6d1d1a3098093877491a77cd9d441956b15c5172456959f70574603",
        "p4_invalid_block": "a72db9727bd8fa6a38e2bfb345c1204fa2c0e5d2463b04c9788989ccebd106a6",
        "p4": "c5d8e0906281afb53907cfd62380f63f9c9cb6c4765d3fb51835b6284089157c",
    },
    TaskId.MOUNTAIN_CAR_DISCRETE: {
        "p1": "8e8e11936e7a8e60a15ba1b3b52421b3079ce3b69149b39a6e3d604b8df97219",
        "p2": "39b7f59e60808a40f47cea1d7b761dc150a3d5a18663d46034df9427c398fd87",
        "p2_reask": "e6d2ec0bcab0cda315abbc242e27b47bcf238067296e3b31ed7949edb80a1f5f",
        "p3": "4edef11067a16850bfdbb730d7103ff71631f4999d9f0f64b94f777810a90105",
        "p3_repair": "142eaf62b1b60a10901e94e66f5edaa4dca4370b85c6284f02170310c1706052",
        "p4_invalid_block": "c6880a5392cee860982b3cc457d009b6a85d9e28e4db96d25d32d4fe42febc26",
        "p4": "a7e202715d8b17f9551c9ff99f4723cc95bd9816e86ef7977fda17896ede66e9",
    },
    TaskId.MOUNTAIN_CAR_CONTINUOUS: {
        "p1": "80ba778b90f65eb87fe6efc50e56dd1c3069f59d760848659c4c8b7001f5aabf",
        "p2": "7640398f73aaf2b6f95a142c879e74787463210f1e6ff10201ed6cc013b56b94",
        "p2_reask": "29612d06fb56f6e39190343eaaff453f71c2f980358e11d294e06f869e39a9be",
        "p3": "4c22039f918e9734f2a1adf1c9ae41c6bfcad87295bd5b940f34bb981fead40c",
        "p3_repair": "4a4e91ec7ae26d5c02e68f4097cd2358fc8ec58fdef63998ea9fd04f44f44f9a",
        "p4_invalid_block": "f70fbfb32c57aae663bd1033e95af8b5a851fbe5d76ffd9742108c002c643e35",
        "p4": "c45528f8d03bad181194a2ddc3e37ff12ffaf3bfeb3bc3ad8b0b6ab713393bd9",
    },
}


@pytest.mark.parametrize("task", ALL_TASKS)
def test_each_task_prompts_and_refusals_are_pinned(task):
    digests = {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in _texts(task).items()
    }
    assert digests == DIGESTS[task]

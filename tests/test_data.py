"""Synthetic scene generation."""

from distilldet import data


def test_small_images_skip_figures_too_tall_to_fit():
    # 64 px is a legal image height, below the tallest figure band (72 px)
    params = data.SceneParams(n_train=12, n_test=2, image_height=64, image_width=96)
    train, test = data.generate_dataset(params, seed=7)
    for scene in train + test:
        assert scene.image.data.shape == (3, 64, 96)
        for g in scene.gts:
            assert 1 <= g.x1 < g.x2 <= 95 and 1 <= g.y1 < g.y2 <= 63


def _same_scenes(a, b):
    return len(a) == len(b) and all(
        s.index == t.index and s.image.data.tobytes() == t.image.data.tobytes() and s.gts == t.gts
        for s, t in zip(a, b))


def test_dataset_repeats_per_seed():
    params = data.SceneParams(n_train=3, n_test=2)
    train, test = data.generate_dataset(params, seed=5)
    again_train, again_test = data.generate_dataset(params, seed=5)
    other_train, _ = data.generate_dataset(params, seed=6)
    assert _same_scenes(train, again_train) and _same_scenes(test, again_test)
    assert not _same_scenes(train, other_train)


def test_scene_i_does_not_depend_on_the_train_set_size():
    short, _ = data.generate_dataset(data.SceneParams(n_train=2, n_test=1), seed=3)
    long, _ = data.generate_dataset(data.SceneParams(n_train=5, n_test=1), seed=3)
    assert _same_scenes(short, long[:2])


def test_the_test_scenes_of_a_smaller_test_set_are_a_prefix_of_a_larger_one():
    _, few = data.generate_dataset(data.SceneParams(n_train=3, n_test=2), seed=4)
    _, many = data.generate_dataset(data.SceneParams(n_train=3, n_test=5), seed=4)
    assert _same_scenes(few, many[:2])


def test_ground_truth_boxes_lie_inside_the_image_with_visibility_in_0_1():
    params = data.SceneParams(n_train=40, n_test=10)
    train, test = data.generate_dataset(params, seed=0)
    gts = [g for scene in train + test for g in scene.gts]
    for g in gts:
        assert 0 <= g.x1 < g.x2 <= params.image_width and 0 <= g.y1 < g.y2 <= params.image_height
        assert 0 < g.visibility <= 1
    assert any(g.visibility < 1 for g in gts)  # occluders do occur
